package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.core.lang.PivotConfig
import repro.data.{ConsolidationGen, Judges}

/** One benchmark workload: a generated dataset at a scale factor and the
  * Algorithm 1 configuration run on it. The workload seed is the
  * generator's seed; the program only ever sees the generated clusters.
  */
final case class Workload(
    name: String,
    sf: Double,
    gen: (SparkSession, Double, Long) => DataFrame,
    judge: RuleJudge,
    cfg: PipelineConfig,
)

object Workloads {

  private def config(agg: AggMethod, theta: Int): PipelineConfig =
    PipelineConfig(agg = agg, dir = BestDir, budget = 100, pivot = PivotConfig(maxPathLen = theta))

  /** Why these three: BothAgg at the paper's headline configuration spreads
    * grouping over many structure pools; TransAgg puts all grouping into one
    * pool (one Spark task), so per-graph costs show undiluted; StructAgg on
    * the largest dataset never builds a graph, so rule mining, selection,
    * apply and MC dominate and every Graph/Pivot change predicts no change.
    */
  val all: Vector[Workload] = Vector(
    Workload("journal-bothagg", 0.12, ConsolidationGen.journalTitle(_, _, _),
      Judges.journalTitle, config(BothAgg, 4)),
    Workload("address-transagg", 0.06, ConsolidationGen.address(_, _, _),
      Judges.address, config(TransAgg, 4)),
    Workload("author-structagg", 1.0, ConsolidationGen.authorList(_, _, _),
      Judges.authorList, config(StructAgg, 5)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
