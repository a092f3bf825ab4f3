package repro.core

import repro.SparkSpec
import repro.core.lang.{PathCheck, Pivot, PivotConfig}
import repro.data.ConsolidationGen

class GroupingSpec extends SparkSpec {

  private val cfg = PivotConfig()

  private val pool = Vector(
    Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
    Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10"),
    Trans("Wisconsin", "WI"), Trans("California", "CA"),
    Trans("java(tm)", "java"), Trans("linux(r)", "linux"))

  test("NoAgg: one group per transformation") {
    val gs = Grouping.group(spark, pool, NoAgg, cfg)
    assert(gs.size == pool.size)
    assert(gs.forall(_.members.size == 1))
  }

  test("StructAgg groups by structure only") {
    val gs = Grouping.group(spark, pool, StructAgg, cfg)
    val ordinals = gs.find(_.members.contains(Trans("9th", "9"))).get
    // 22nd -> 10 shares the structure dl -> d with 9th -> 9 and 3rd -> 3
    assert(ordinals.members.toSet ==
      Set(Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10")))
    assert(ordinals.structKey.contains(Structure.ofTransformation("9th", "9")))
    assert(ordinals.path.isEmpty)
  }

  test("BothAgg splits 22nd->10 from the true ordinals") {
    val gs = Grouping.group(spark, pool, BothAgg, cfg)
    val sets = gs.map(_.members.toSet)
    assert(sets.contains(Set(Trans("9th", "9"), Trans("3rd", "3"))), sets)
    assert(sets.contains(Set(Trans("22nd", "10"))), sets)
  }

  test("BothAgg groups are a partition with struct and path populated") {
    val gs = Grouping.group(spark, pool, BothAgg, cfg)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    assert(gs.flatMap(_.members).size == pool.size)
    for (g <- gs) {
      assert(g.structKey.isDefined && g.path.isDefined)
      for (m <- g.members) {
        assert(m.structKey == g.structKey.get)
        assert(PathCheck.consistent(g.path.get, m.lhs, m.rhs), s"${g.id} vs $m")
      }
    }
  }

  test("TransAgg groups are a partition with paths consistent across structures") {
    val gs = Grouping.group(spark, pool, TransAgg, cfg)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    for (g <- gs; m <- g.members)
      assert(PathCheck.consistent(g.path.get, m.lhs, m.rhs))
    // TransAgg can merge across structure boundaries, so it has at most as
    // many groups as BothAgg for the same pool.
    val both = Grouping.group(spark, pool, BothAgg, cfg)
    assert(gs.size <= both.size)
  }

  test("rank orders by aggregate frequency, descending") {
    def rule(a: String, b: String, n: Int): (RuleKey, MatchingRule) = {
      val k = RuleKey.of(a, b)
      k -> MatchingRule(k, (1 to n).map(i => Occ(i, s"$a $i", 1, a.length)).toSet, Set.empty)
    }
    val catalog = Map(rule("9th", "9", 5), rule("3rd", "3", 2), rule("22nd", "10", 1))
    val g1 = RuleGroup("a", None, None, Vector(Trans("9th", "9"), Trans("3rd", "3"))) // freq 7
    val g2 = RuleGroup("b", None, None, Vector(Trans("22nd", "10")))                  // freq 1
    assert(Grouping.rank(Seq(g2, g1), catalog).map(_.id) == Vector("a", "b"))
  }

  test("empty pool produces no groups for all methods") {
    for (m <- Seq(NoAgg, StructAgg, TransAgg, BothAgg))
      assert(Grouping.group(spark, Vector.empty, m, cfg).isEmpty, s"$m")
  }

  test("BothAgg is deterministic across runs") {
    // covers TransAgg too, and neither input order nor the session's shuffle
    // partition count may change the groups
    val key  = "spark.sql.shuffle.partitions"
    val prev = spark.conf.get(key)
    try {
      for (m <- Seq(BothAgg, TransAgg)) {
        val runs = for (parts <- Seq("1", "64"); input <- Seq(pool, pool.reverse)) yield {
          spark.conf.set(key, parts)
          Grouping.group(spark, input, m, cfg).map(g => (g.id, g.path, g.members))
        }
        assert(runs.distinct.size == 1, s"$m")
      }
    } finally spark.conf.set(key, prev)
  }

  /** The groups of `Pivot.groupByPrograms` run per pool on the driver. */
  private def reference(trans: Seq[Trans], byStructure: Boolean): Vector[RuleGroup] = {
    val freq  = Pivot.constTermFreq(trans.map(_.lhs), cfg.graph.maxConstTermLen)
    val pools = if (byStructure) trans.groupBy(_.structKey).toVector else Vector("" -> trans)
    pools.flatMap { case (key, ts) =>
      Pivot.groupByPrograms(ts, cfg, freq).map { g =>
        RuleGroup(s"prog:${key.length}:$key:${g.pathKey}", Option.when(byStructure)(key),
          Some(g.path), g.members.sortBy(tr => (tr.lhs, tr.rhs)))
      }
    }
  }

  test("pivot grouping equals the per-pool driver reference, ids included") {
    val addr  = ConsolidationGen.address(spark, 0.01)
    val trans = Selection.select(RuleGen.generate(spark, addr, true).keys.toSeq, BestDir, 42)
    assert(trans.nonEmpty)
    for (input <- Seq(pool, trans); (m, byStructure) <- Seq(BothAgg -> true, TransAgg -> false))
      assert(Grouping.group(spark, input, m, cfg).sortBy(_.id) ==
        reference(input, byStructure).sortBy(_.id), s"$m")
  }
}
