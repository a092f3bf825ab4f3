package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.lang.{Label, Pivot, PivotConfig}

/** Aggregation methods compared in Section 7.1. */
sealed trait AggMethod extends Serializable
case object NoAgg     extends AggMethod
case object StructAgg extends AggMethod
case object TransAgg  extends AggMethod
case object BothAgg   extends AggMethod

/** A group of matching rules presented to the expert in bulk (Steps 3–4).
  * `structKey`/`path` describe the grouping criteria used, so newly generated
  * rules can be adopted into an approved group later (Section 6).
  */
final case class RuleGroup(
    id: String,
    structKey: Option[String],
    path: Option[Vector[Label]],
    members: Vector[Trans],
)

object Grouping {

  /** Aggregate the selected transformations into rule groups.
    *
    * BothAgg distributes the per-structure-group pivot search across Spark
    * tasks; TransAgg is a single pool (a single task) — this is exactly why
    * the paper's Table 4 shows TransAgg an order of magnitude slower.
    */
  def group(spark: SparkSession, trans: Seq[Trans], method: AggMethod,
            cfg: PivotConfig): Vector[RuleGroup] = method match {

    case NoAgg =>
      trans.sortBy(tr => (tr.lhs, tr.rhs)).toVector.map { tr =>
        RuleGroup(s"rule:${tr.lhs}${tr.rhs}", None, None, Vector(tr))
      }

    case StructAgg =>
      trans.groupBy(_.structKey).toVector.sortBy(_._1).map { case (sk, ms) =>
        RuleGroup(s"struct:$sk", Some(sk), None, ms.toVector.sortBy(tr => (tr.lhs, tr.rhs)))
      }

    case TransAgg => pivotGroups(spark, trans, cfg, byStructure = false)

    case BothAgg => pivotGroups(spark, trans, cfg, byStructure = true)
  }

  /** Distributed pivot grouping. Each pool Σ (one structure group, or all
    * transformations) is searched on its own (Section 4), so each pool is one
    * Spark task, largest first; the groups are built on the driver.
    */
  private def pivotGroups(spark: SparkSession, trans: Seq[Trans],
                          cfg: PivotConfig, byStructure: Boolean): Vector[RuleGroup] = {
    if (trans.isEmpty) return Vector.empty // parallelize needs at least one slice
    val pools =
      (if (byStructure) trans.groupBy(_.structKey).toVector else Vector("" -> trans))
        .sortBy { case (key, pool) => (-pool.size, key) }
    val bcFreq = spark.sparkContext.broadcast(
      Pivot.constTermFreq(trans.map(_.lhs), cfg.graph.maxConstTermLen))

    val searched = spark.sparkContext.parallelize(pools, pools.size)
      .map { case (poolKey, pool) => (poolKey, Pivot.groupByPrograms(pool, cfg, bcFreq.value)) }
      .collect()

    searched.toVector
      .flatMap { case (poolKey, groups) => groups.map(poolKey -> _) }
      .sortBy { case (poolKey, g) => (poolKey, g.pathKey) }
      .map { case (poolKey, g) =>
        RuleGroup(
          id = s"prog:${poolKey.length}:$poolKey:${g.pathKey}",
          structKey = if (byStructure) Some(poolKey) else None,
          path = Some(g.path),
          members = g.members.sortBy(tr => (tr.lhs, tr.rhs)),
        )
      }
  }

  /** Rank groups by aggregate frequency, descending (Section 6): the sum of
    * member rule frequencies, where a rule's frequency is the larger of its
    * two replacement-set sizes.
    */
  def rank(groups: Seq[RuleGroup], catalog: Map[RuleKey, MatchingRule]): Vector[RuleGroup] =
    groups.toVector.sortBy { g =>
      (-g.members.map(m => catalog.get(m.key).map(_.frequency).getOrElse(0)).sum, g.id)
    }
}
