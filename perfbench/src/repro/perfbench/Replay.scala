package repro.perfbench

import repro.core._
import repro.core.lang.{GraphBuilder, Pivot, PivotConfig}

/** Counters of the driver-side replay of the pivot grouping. */
final case class ReplayStats(
    graphs: Long,
    edges: Long,
    labels: Long,
    degenerate: Long,
    distinctLabels: Long,
    searchSeconds: Double,
    maxPoolSeconds: Double,
    sameGroups: Boolean,
)

/** Grouping runs its pivot search inside Spark tasks, out of reach of the
  * driver's spans. The traced run therefore replays every pool serially on
  * the driver, with a span around each call into `Pivot` and `GraphBuilder`,
  * and checks that the replay forms exactly the groups the Spark run formed.
  */
object Replay {

  /** The pools `Grouping.group` hands to `Pivot.groupByPrograms`, keyed as
    * there; StructAgg and NoAgg never run a pivot search.
    */
  def pools(trans: Seq[Trans], agg: AggMethod): Vector[(String, Vector[Trans])] = agg match {
    case BothAgg  => trans.groupBy(_.structKey).toVector.sortBy(_._1).map { case (k, ts) => (k, ts.toVector) }
    case TransAgg => Vector(("", trans.toVector))
    case _        => Vector.empty
  }

  def run(tracer: Tracer, trans: Seq[Trans], groups: Seq[RuleGroup], agg: AggMethod,
          cfg: PivotConfig): ReplayStats = {
    val ps = pools(trans, agg)
    if (ps.isEmpty) return ReplayStats(0, 0, 0, 0, 0, 0.0, 0.0, sameGroups = true)
    val maxLen = cfg.graph.maxConstTermLen
    val globalFreq = tracer.span("Pivot.constTermFreq")(Pivot.constTermFreq(trans.map(_.lhs), maxLen))

    var graphs, edges, labels, degenerate, distinctLabels = 0L
    var search, maxPool = 0.0
    val replayed = Vector.newBuilder[RuleGroup]
    for ((poolKey, pool) <- ps) {
      // Mirror the set-up `groupByPrograms` does before its search, timing
      // each call on its own.
      val sorted = pool.distinct.sortBy(tr => (tr.lhs, tr.rhs))
      val (searchable, overlong) = sorted.partition(tr =>
        tr.lhs.length <= cfg.graph.maxSideLen && tr.rhs.length <= cfg.graph.maxSideLen)
      var setupNs = 0L
      if (sorted.size > 1) {
        degenerate += overlong.size
        if (searchable.nonEmpty) {
          val t0 = System.nanoTime()
          val groupFreq = tracer.span("Pivot.constTermFreq")(Pivot.constTermFreq(searchable.map(_.lhs), maxLen))
          val scoreFn   = tracer.span("Pivot.constScoreFn")(Pivot.constScoreFn(groupFreq, globalFreq))
          val gs = searchable.zipWithIndex.map { case (tr, i) =>
            tracer.span("GraphBuilder.build")(GraphBuilder.build(i, tr.lhs, tr.rhs, cfg.graph, scoreFn))
          }
          setupNs = System.nanoTime() - t0
          graphs += gs.size
          edges += gs.iterator.map(_.edges.size.toLong).sum
          labels += gs.iterator.flatMap(_.edges.valuesIterator).map(_.size.toLong).sum
          distinctLabels += gs.iterator.flatMap(_.edges.valuesIterator).flatten.toSet.size
        }
      }
      val t0 = System.nanoTime()
      val pgs = tracer.span("Pivot.groupByPrograms")(Pivot.groupByPrograms(pool, cfg, globalFreq))
      val poolSeconds = (System.nanoTime() - t0) / 1e9
      search += math.max(0.0, poolSeconds - setupNs / 1e9)
      maxPool = math.max(maxPool, poolSeconds)
      for (g <- pgs) replayed += RuleGroup(
        id = s"prog:${poolKey.length}:$poolKey:${g.pathKey}",
        structKey = if (agg == BothAgg) Some(poolKey) else None,
        path = Some(g.path),
        members = g.members.sortBy(tr => (tr.lhs, tr.rhs)))
    }
    def keyed(gs: Seq[RuleGroup]) = gs.map(g => (g.id, g.path, g.members)).toSet
    ReplayStats(graphs, edges, labels, degenerate, distinctLabels, search, maxPool,
      sameGroups = keyed(replayed.result()) == keyed(groups))
  }
}
