package repro.perfbench

import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.core._
import repro.core.lang.PathCheck
import scala.util.control.NonFatal

/** What one iteration produced, collected to the driver after the timed
  * region: the ranked groups, the expert's decisions, the final table and
  * the golden records.
  */
final case class IterationOutput(
    trans: Vector[Trans],
    ranked: Vector[RuleGroup],
    decisions: Vector[Decision],
    updated: Array[(Long, Long, String)],
    golden: Array[(Long, Option[String])],
)

object Checks {

  /** Majority consensus in SQL, for the DuckDB oracle: the most frequent
    * value per cluster, NULL on a tie.
    */
  private val MajoritySql =
    """WITH c AS (SELECT cluster, value, COUNT(*) AS cnt FROM t GROUP BY cluster, value),
      |     m AS (SELECT cluster, MAX(cnt) AS mx FROM c GROUP BY cluster),
      |     w AS (SELECT c.cluster, c.value FROM c JOIN m ON c.cluster = m.cluster AND c.cnt = m.mx)
      |SELECT cluster, CASE WHEN COUNT(*) = 1 THEN MIN(value) END AS golden
      |FROM w GROUP BY cluster""".stripMargin

  /** The checks on the driver-side outputs of one iteration; returns the
    * failures (empty = ok).
    */
  def structural(input: Input, agg: AggMethod, out: IterationOutput): Vector[String] = {
    val failures = Vector.newBuilder[String]
    def check(name: String)(ok: => Boolean): Unit =
      try { if (!ok) failures += name }
      catch { case NonFatal(e) => failures += s"$name: ${e.getMessage}" }

    check("record ids and clusters preserved") {
      out.updated.length == input.original.size &&
        out.updated.forall { case (c, rid, _) => input.original.get(rid).exists(_._1 == c) }
    }
    check("groups partition the selected transformations") {
      val members = out.ranked.flatMap(_.members)
      members.size == out.trans.size && members.toSet == out.trans.toSet
    }
    if (agg == BothAgg || agg == StructAgg) check("every group is single-structure") {
      out.ranked.forall(g => g.structKey.isDefined && g.members.forall(_.structKey == g.structKey.get))
    }
    if (agg == BothAgg || agg == TransAgg) check("every group path is consistent for its members") {
      out.ranked.forall(g => g.path.exists(p => g.members.forall(m => PathCheck.consistent(p, m.lhs, m.rhs))))
    }
    failures.result()
  }

  /** `Consensus.majority` on the final table against the same query in
    * DuckDB. It loads the whole table over JDBC, seconds at 30k rows, so a
    * run makes it once and holds later iterations to the same digest.
    */
  def oracle(spark: SparkSession, updated: DataFrame): Vector[String] =
    try {
      Oracle.assertEquivalent(Consensus.majority(spark, updated), MajoritySql, "t" -> updated)
      Vector.empty
    } catch { case NonFatal(e) => Vector(s"Consensus.majority disagrees with the DuckDB oracle: ${e.getMessage}") }

  /** Hash of the ranked groups (ids + members), the decisions, the updated
    * values and the golden records; equal outputs give equal digests.
    */
  def digest(out: IterationOutput): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(s: String): Unit = { md.update(s.getBytes("UTF-8")); md.update(0.toByte) }
    for (g <- out.ranked) {
      put(g.id)
      g.members.foreach(m => put(m.lhs + "\u0002" + m.rhs))
    }
    for (d <- out.decisions) {
      put(s"${d.rank}:${d.forward}")
      d.memberDirs.toVector.sortBy(kv => (kv._1.a, kv._1.b)).foreach { case (k, dir) => put(s"${k.a}\u0002${k.b}\u0002$dir") }
    }
    out.updated.sortBy(_._2).foreach { case (c, rid, v) => put(s"$c:$rid:$v") }
    out.golden.sortBy(_._1).foreach { case (c, g) => put(s"$c:${g.getOrElse("\u0003")}") }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
