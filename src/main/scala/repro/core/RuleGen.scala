package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Flat row form of one replacement occurrence of a rule side, suitable for
  * a Dataset: (a, b) is the canonical rule key, `sideA` tells which side the
  * occurrence belongs to.
  */
final case class RuleOccRow(a: String, b: String, sideA: Boolean,
                            cluster: Long, value: String, p: Int, q: Int)

/** Distributed candidate matching-rule generation (Section 2, Step 1):
  * per-cluster pairwise LCS alignment runs data-parallel across clusters.
  */
object RuleGen {

  /** Generate all matching rules from a clusters DataFrame with columns
    * (cluster LONG, recordId LONG, value STRING).
    */
  def generate(spark: SparkSession, clusters: DataFrame,
               includeFullValue: Boolean = true): Map[RuleKey, MatchingRule] = {
    import spark.implicits._
    val rows = clusters
      .select("cluster", "value").as[(Long, String)]
      .groupByKey(_._1)
      .flatMapGroups { (cid, it) =>
        val values = it.map(_._2).toSeq
        Rules.clusterRules(cid, values, includeFullValue).valuesIterator.flatMap { r =>
          r.occA.iterator.map(o => RuleOccRow(r.key.a, r.key.b, sideA = true, o.cluster, o.value, o.p, o.q)) ++
            r.occB.iterator.map(o => RuleOccRow(r.key.a, r.key.b, sideA = false, o.cluster, o.value, o.p, o.q))
        }
      }
      .collect()

    Rules.mergeCatalog(rows.iterator.map { row =>
      val key = RuleKey(row.a, row.b)
      val occ = Occ(row.cluster, row.value, row.p, row.q)
      if (row.sideA) MatchingRule(key, Set(occ), Set.empty)
      else MatchingRule(key, Set.empty, Set(occ))
    }).toMap
  }

  /** Number of distinct within-cluster value pairs (the "distinct duplicate
    * pairs" statistic the paper reports per dataset).
    */
  def distinctDuplicatePairs(spark: SparkSession, clusters: DataFrame): Long = {
    import spark.implicits._
    clusters.select("cluster", "value").distinct()
      .groupBy("cluster").count()
      .select(($"count" * ($"count" - 1) / 2).as[Double])
      .collect()
      .map(_.toLong)
      .sum
  }
}
