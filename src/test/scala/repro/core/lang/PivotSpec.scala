package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Trans

class PivotSpec extends AnyFunSuite {

  private val cfg = PivotConfig()

  private def group(pool: Seq[Trans], c: PivotConfig = cfg): Vector[ProgGroup] =
    Pivot.groupByPrograms(pool, c, Map.empty)

  private def memberSets(gs: Vector[ProgGroup]): Set[Set[Trans]] =
    gs.map(_.members.toSet).toSet

  test("Example 4.6 + 4.7: Street->St, Avenue->Av, New York->NY group together") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Av"), Trans("New York", "NY"))
    val gs = group(pool)
    // Street->St and Avenue->Av share SubStr(first cap)+Prefix/SubStr; with
    // affix labels all three can share: NY = cap1 + cap2... but Street/Avenue
    // have a single capital. The pivot must at least join Street/Avenue.
    val joined = gs.find(_.members.toSet.contains(Trans("Street", "St"))).get
    assert(joined.members.toSet.contains(Trans("Avenue", "Av")))
  }

  test("Example 4.7: with affix labels Street->St and Avenue->Ave share a program") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"))
    val gs = group(pool)
    assert(gs.size == 1)
    val path = gs.head.path
    assert(PathCheck.consistent(path, "Street", "St"))
    assert(PathCheck.consistent(path, "Avenue", "Ave"))
  }

  test("without affix labels Street->St and Avenue->Ave cannot group") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"))
    val gs = group(pool, cfg.copy(graph = cfg.graph.copy(affix = false)))
    assert(gs.size == 2)
  }

  test("Appendix C: 9th->9 and 3rd->3 group; 22nd->10 splits off") {
    val pool = Seq(Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10"))
    val gs = group(pool)
    val sets = memberSets(gs)
    assert(sets.contains(Set(Trans("9th", "9"), Trans("3rd", "3"))), sets)
    assert(sets.contains(Set(Trans("22nd", "10"))), sets)
  }

  test("pivot path is consistent with every member") {
    val pool = Seq(
      Trans("java(tm)", "java"), Trans("linux(r)", "linux"),
      Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "22"))
    for (g <- group(pool); m <- g.members)
      assert(PathCheck.consistent(g.path, m.lhs, m.rhs), s"${g.pathKey} vs $m")
  }

  test("groups form a partition of the pool") {
    val pool = Seq(
      Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
      Trans("9", "9th"), Trans("02141 Wisconsin", "02141 WI"), Trans("x", "y"))
    val gs = group(pool)
    val all = gs.flatMap(_.members)
    assert(all.size == pool.size)
    assert(all.toSet == pool.toSet)
  }

  test("threshold variants produce identical groups (Section 7.3 guarantee)") {
    val pool = Seq(
      Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
      Trans("Boulevard", "Blvd"), Trans("9", "9th"), Trans("3", "3rd"),
      Trans("Wisconsin", "WI"), Trans("California", "CA"), Trans("abc", "xyz"))
    val variants = Seq(
      cfg.copy(localThreshold = false, globalThreshold = false),
      cfg.copy(localThreshold = true, globalThreshold = false),
      cfg.copy(localThreshold = false, globalThreshold = true),
      cfg.copy(localThreshold = true, globalThreshold = true),
    )
    val results = variants.map(c => memberSets(group(pool, c)))
    assert(results.distinct.size == 1, results.mkString("\n"))
  }

  test("single transformation pool yields one group") {
    val gs = group(Seq(Trans("alpha", "a")))
    assert(gs.size == 1 && gs.head.members == Vector(Trans("alpha", "a")))
  }

  test("empty-rhs transformations share the empty program") {
    val gs = group(Seq(Trans("(tm)", ""), Trans("(r)", "")))
    assert(gs.size == 1)
    assert(gs.head.pathKey == "ε")
    // an lhs over maxSideLen gets no graph, but the same empty program
    val long = Trans("x" * (cfg.graph.maxSideLen + 1), "")
    assert(group(Seq(long, Trans("(tm)", ""))).map(g => (g.pathKey, g.members.toSet)) ==
      Vector(("ε", Set(long, Trans("(tm)", "")))))
  }

  test("every threshold variant finds a pivot of brute-force maximal score") {
    // Pools of ≤ 8 transformations with sides of ≤ 8 chars: lhs strings of
    // one shape (2–3 tokens), most rhs spliced from their tokens by one
    // recipe, so that members share programs, plus a few unrelated ones.
    val rnd = new scala.util.Random(11)
    def pick(s: String): Char = s(rnd.nextInt(s.length))
    def token(kind: Char): String =
      if (kind == 'd') Iterator.fill(1 + rnd.nextInt(2))(pick("0123456789")).mkString
      else pick("ABCD").toString + (if (rnd.nextBoolean()) pick("abcd").toString else "")
    def pool(): Seq[Trans] = {
      val shape  = Seq.fill(2 + rnd.nextInt(2))(pick("dC"))
      val sep    = pick(" .").toString
      val recipe = Seq.fill(1 + rnd.nextInt(3))(rnd.nextInt(shape.length + 2) - 2)
      Seq.fill(2 + rnd.nextInt(7)) {
        val toks = shape.map(token)
        val rhs  =
          if (rnd.nextInt(5) == 0) token(pick("dC"))
          else recipe.map { r =>
            if (r == -2) "-" else if (r == -1) toks.head.take(1) else toks(r)
          }.mkString
        Trans(toks.mkString(sep), rhs)
      }
    }
    val pools = Seq.fill(20)(pool())

    for (pool <- pools; theta <- Seq(3, 4)) {
      // The graphs exactly as groupByPrograms builds them.
      val sorted = pool.distinct.sortBy(tr => (tr.lhs, tr.rhs)).toVector
      val constScore = Pivot.constScoreFn(
        Pivot.constTermFreq(sorted.map(_.lhs), cfg.graph.maxConstTermLen), Map.empty)
      val graphs = sorted.zipWithIndex.map { case (tr, i) =>
        GraphBuilder.build(i, tr.lhs, tr.rhs, cfg.graph, constScore)
      }
      val edgesOf = graphs.map(_.edges.toSeq.flatMap { case (ij, ls) => ls.map(_ -> ij) }.groupMap(_._1)(_._2))

      // Nodes of graph k reachable from node 1 along `path`; a graph contains
      // the path iff its last node is reachable.
      def reach(k: Int, from: Set[Int], f: Label): Set[Int] =
        edgesOf(k).getOrElse(f, Nil).collect { case (i, j) if from(i) => j }.toSet
      def score(path: Seq[Label]): Int = graphs.indices.count { k =>
        path.foldLeft(Set(1))(reach(k, _, _)).contains(graphs(k).lastNode)
      }
      // Every label path of length ≤ θ through graph g, each scored by the
      // pool graphs containing it (reachable sets carried along the prefix).
      def bruteBest(g: TGraph): Int = {
        var best = 0
        def dfs(node: Int, depth: Int, live: Vector[(Int, Set[Int])]): Unit =
          for (((i, j), ls) <- g.edges if i == node; f <- ls) {
            val next = live.map { case (k, r) => (k, reach(k, r, f)) }.filter(_._2.nonEmpty)
            if (j == g.lastNode) best = math.max(best, next.count { case (k, r) => r(graphs(k).lastNode) })
            else if (depth + 1 < theta) dfs(j, depth + 1, next)
          }
        dfs(1, 0, graphs.indices.map(k => (k, Set(1))).toVector)
        best
      }
      val best = graphs.map(bruteBest)

      for (local <- Seq(false, true); global <- Seq(false, true)) {
        val c = cfg.copy(maxPathLen = theta, localThreshold = local, globalThreshold = global,
                         sampleCap = 0, searchBudget = 0)
        for (g <- group(sorted, c); m <- g.members) {
          val k = sorted.indexOf(m)
          val variant = s"θ=$theta local=$local global=$global ${g.pathKey} for $m in $sorted"
          assert(g.path.foldLeft(Set(1))(reach(k, _, _)).contains(graphs(k).lastNode), variant)
          assert(score(g.path) == best(k), variant)
        }
      }
    }
  }

  test("empty pool") {
    assert(group(Seq.empty) == Vector.empty)
  }

  test("maxPathLen limits grouping granularity but preserves the partition") {
    val pool = Seq(Trans("a b c", "c b a"), Trans("x y z", "z y x"), Trans("q", "qq"))
    val gs = group(pool, cfg.copy(maxPathLen = 2))
    assert(gs.flatMap(_.members).toSet == pool.toSet)
  }

  test("larger maxPathLen can only merge more (recall grows with θ, Appendix E)") {
    val pool = Seq(Trans("a b c", "c-b-c"), Trans("x y z", "z-y-z"))
    val g3 = group(pool, cfg.copy(maxPathLen = 1)).size
    val g5 = group(pool, cfg.copy(maxPathLen = 5)).size
    assert(g5 <= g3)
  }

  test("constTermFreq counts per-transformation containment") {
    val f = Pivot.constTermFreq(Seq("abab", "ab"), 3)
    assert(f("ab") == 2)
    assert(f("aba") == 1)
    assert(!f.contains("abab")) // length 4 > maxLen 3
  }

  test("constScoreFn prefers group-frequent, globally-rare terms") {
    val score = Pivot.constScoreFn(Map("dr." -> 10, "e" -> 10), Map("dr." -> 10, "e" -> 1000))
    assert(score("dr.") > score("e"))
    assert(score("unseen") == 0.0)
  }

  test("deterministic output across invocations") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("9", "9th"),
      Trans("Wisconsin", "WI"), Trans("3", "3rd"))
    val a = group(pool).map(g => (g.pathKey, g.members))
    val b = group(pool.reverse).map(g => (g.pathKey, g.members))
    assert(a == b)
  }
}
