package repro.perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.ConsolidationGen
import scala.collection.mutable
import scala.util.control.NonFatal

/** The generated input of one run, cached once in set-up: `records` with
  * the ground-truth entity, `clusters` the program's view of it, and
  * `original` mapping record id to (cluster, value).
  */
final class Input(
    val records: DataFrame,
    val clusters: DataFrame,
    val original: Map[Long, (Long, String)],
) {
  def rows: Long = original.size.toLong

  def release(): Unit = Seq(records, clusters).foreach(_.unpersist(blocking = true))
}

/** Golden-record benchmark: runs Algorithm 1 end to end on one workload and
  * prints every metric as `name value unit`, then one JSON result line.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   [--sf <scale>] [--iterations <n>] [--out <dir>]
  *
  * `--trace 0` measures the end-to-end metrics by calling `Pipeline` as a
  * user would. `--trace 1` makes the same calls one layer at a time, each
  * wrapped in a span, attributes Spark tasks to layers with a listener, and
  * replays the pivot grouping on the driver; it reports the per-layer
  * metrics.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        sf: Option[Double], iterations: Option[Int], out: String)

  /** Input generation is repeated this often in set-up; its median counts. */
  private val InputReps = 3

  /** Warm-up iterations in set-up: the first runs up to twice as long as a
    * settled one, the second about 15% longer.
    */
  private val WarmupIterations = 2

  private val ShufflePartitions = 64

  /** Sizes of the labelled samples behind `mc_precision` and `pair_mcc`,
    * large so that the quality figures vary little from seed to seed.
    */
  private val QualityClusters = 2000
  private val QualityPairs    = 2000

  private val EndToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s", "first_question_s" -> "s", "apply_s" -> "s", "golden_s" -> "s",
    "rows_per_s" -> "1/s", "retained_heap_mb" -> "MB", "mc_precision" -> "ratio")

  private val PerLayer: Vector[(String, String)] = Vector(
    "RuleGen.generate.s" -> "s", "RuleGen.generate.task_s" -> "s", "RuleGen.generate.result_mb" -> "MB",
    "RuleGen.rules" -> "count", "RuleGen.occurrences" -> "count",
    "Selection.select.s" -> "s", "Selection.trans" -> "count",
    "Structure.pools" -> "count", "Structure.largest_pool" -> "count",
    "Grouping.group.s" -> "s", "Grouping.group.task_s" -> "s", "Grouping.group.max_task_s" -> "s",
    "Grouping.group.tasks" -> "count", "Grouping.group.spark_overhead_s" -> "s",
    "Grouping.groups" -> "count", "Grouping.compression" -> "ratio", "Grouping.rank.s" -> "s",
    "Pivot.constTermFreq.s" -> "s", "GraphBuilder.build.s" -> "s", "GraphBuilder.graphs" -> "count",
    "GraphBuilder.edges" -> "count", "GraphBuilder.labels" -> "count", "GraphBuilder.degenerate" -> "count",
    "Pivot.groupByPrograms.s" -> "s", "Pivot.search_s" -> "s", "Pivot.max_pool_s" -> "s",
    "Pivot.distinct_labels" -> "count",
    "Expert.confirmAll.s" -> "s", "Expert.shown" -> "count", "Expert.approved" -> "count",
    "Expert.approval_ratio" -> "ratio",
    "Applier.keyString.s" -> "s", "Applier.applyAll.s" -> "s", "Applier.applyAll.task_s" -> "s",
    "Applier.applyAll.max_task_s" -> "s", "Applier.changed_records" -> "count",
    "Applier.changed_clusters" -> "count",
    "Consensus.majority.s" -> "s", "Consensus.golden" -> "count", "Consensus.ties" -> "count",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.shuffle_mb" -> "MB",
    "spark.scheduler_delay_s" -> "s", "spark.failed_tasks" -> "count", "jvm.gc_s" -> "s",
    "trace.golden_s" -> "s", "trace.layer_share" -> "ratio", "Metrics.pair_mcc" -> "ratio")

  /** The layer calls of one iteration; their spans should cover `golden_s`. */
  private val LayerSpans = Seq("RuleGen.generate", "Selection.select", "Grouping.group", "Grouping.rank",
    "Expert.confirmAll", "Applier.keyString", "Applier.applyAll", "Consensus.majority")

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList, Opts("", 1L, 10.0, trace = false, None, None, ".bench_build"))
    val wl = Workloads.byName(opts.workload).getOrElse {
      Console.err.println(s"unknown workload '${opts.workload}'; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val code =
      try run(opts, wl)
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  @annotation.tailrec
  private def parse(args: List[String], o: Opts): Opts = args match {
    case "--workload" :: v :: rest   => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest      => parse(rest, o.copy(trace = v == "1"))
    case "--sf" :: v :: rest         => parse(rest, o.copy(sf = Some(v.toDouble)))
    case "--iterations" :: v :: rest => parse(rest, o.copy(iterations = Some(v.toInt)))
    case "--out" :: v :: rest        => parse(rest, o.copy(out = v))
    case Nil                         => o
    case other                       => throw new IllegalArgumentException(s"bad arguments: $other")
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def session(out: String): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
  }

  private def makeInput(spark: SparkSession, wl: Workload, sf: Double, seed: Long): Input = {
    import spark.implicits._
    val records  = wl.gen(spark, sf, seed).cache()
    val clusters = records.select("cluster", "recordId", "value").cache()
    val original = clusters.as[(Long, Long, String)].collect().map { case (c, r, v) => r -> (c, v) }.toMap
    new Input(records, clusters, original)
  }

  /** `mc_precision` and `pair_mcc` of a final table, on labelled samples
    * drawn from the input with the workload seed. This runs outside the
    * timed region at 4 shuffle partitions, which takes a third of the time
    * at the session's 64; the samples drawn depend on that setting, the
    * metrics given the samples do not.
    */
  private def quality(spark: SparkSession, input: Input, seed: Long,
                      updated: DataFrame): (Double, Double) = {
    spark.conf.set("spark.sql.shuffle.partitions", 4)
    try {
      val pairs  = ConsolidationGen.samplePairs(spark, input.records, QualityPairs, seed).cache()
      val sample = ConsolidationGen.sampleClusters(spark, input.records, QualityClusters, seed)
      val withEntity = updated.join(input.records.select(col("recordId"), col("entityId")), Seq("recordId"))
      val result = (Metrics.mcPrecision(spark, withEntity, sample), Metrics.pairConfusion(spark, updated, pairs).mcc)
      pairs.unpersist(blocking = true)
      result
    } finally spark.conf.set("spark.sql.shuffle.partitions", ShufflePartitions)
  }

  /** One iteration's timed results and its outputs, before checks. */
  private final case class Timed(
      firstQuestion: Double, apply: Double, golden: Double,
      prepared: Prepared, decisions: Vector[Decision], shown: Int,
      updated: DataFrame, golds: Array[(Long, Option[String])])

  private def collectGolden(spark: SparkSession, updated: DataFrame): Array[(Long, Option[String])] = {
    import spark.implicits._
    Consensus.majority(spark, updated).as[(Long, Option[String])].collect()
  }

  /** Algorithm 1 through the program's own entry points. */
  private def plainIteration(spark: SparkSession, input: Input, wl: Workload): Timed = {
    val t0       = System.nanoTime()
    val prepared = Pipeline.prepare(spark, input.clusters, wl.cfg)
    val t1       = System.nanoTime()
    val res      = Pipeline.applyBudget(spark, prepared, wl.judge, wl.cfg.budget, wl.cfg)
    val golds    = collectGolden(spark, res.updated)
    val t2       = System.nanoTime()
    Timed((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t2 - t0) / 1e9,
      prepared, res.decisions, res.confirmed, res.updated, golds)
  }

  /** The same calls `Pipeline.prepare` and `Pipeline.applyBudget` make, in
    * the same order, one span per layer call.
    */
  private def tracedIteration(spark: SparkSession, input: Input, wl: Workload, tr: Tracer): Timed = {
    val cfg = wl.cfg
    var t1  = 0L
    val t0  = System.nanoTime()
    val (prepared, decisions, shown, updated, golds) = tr.span("iteration") {
      val prepared = tr.span("Pipeline.prepare") {
        val catalog = tr.span("RuleGen.generate")(RuleGen.generate(spark, input.clusters, cfg.includeFullValue))
        val trans   = tr.span("Selection.select")(Selection.select(catalog.keys.toSeq, cfg.dir, cfg.seed))
        val groups  = tr.span("Grouping.group")(Grouping.group(spark, trans, cfg.agg, cfg.pivot))
        val ranked  = tr.span("Grouping.rank")(Grouping.rank(groups, catalog))
        Prepared(input.clusters, catalog, trans, ranked, 0L, 0L)
      }
      t1 = System.nanoTime()
      val (decisions, shown, updated) = tr.span("Pipeline.applyBudget") {
        val (decisions, shown) = tr.span("Expert.confirmAll")(
          Expert.confirmAll(prepared.ranked, prepared.catalog, wl.judge, cfg.budget, cfg.agg, cfg.expert))
        val keys = tr.span("Applier.keyString")(prepared.catalog.keysIterator.map(Applier.keyString).toSet)
        val updated = tr.span("Applier.applyAll") {
          val u = Applier.applyAll(spark, prepared.clusters, decisions, keys).cache()
          u.count()
          u
        }
        (decisions, shown, updated)
      }
      val golds = tr.span("Consensus.majority")(collectGolden(spark, updated))
      (prepared, decisions, shown, updated, golds)
    }
    val t2 = System.nanoTime()
    Timed((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t2 - t0) / 1e9, prepared, decisions, shown, updated, golds)
  }

  private def output(spark: SparkSession, t: Timed): IterationOutput = {
    import spark.implicits._
    IterationOutput(t.prepared.trans, t.prepared.ranked, t.decisions,
      t.updated.as[(Long, Long, String)].collect(), t.golds)
  }

  /** Per-layer metrics of traced iteration `it`. */
  private def layerMetrics(it: Int, tr: Tracer, counters: SparkCounters, t: Timed, out: IterationOutput,
                           input: Input, replay: ReplayStats, gcSeconds: Double): Map[String, Double] = {
    val spans = tr.of(it)
    def dur(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum
    def tasks(name: String) = counters.tasksWhere(_ == Tracer.group(it, name))
    def taskS(name: String) = tasks(name).map(_.runMs).sum / 1e3
    def maxTaskS(name: String) = (0L +: tasks(name).map(_.runMs)).max / 1e3
    val iterTasks = counters.tasksWhere(_.startsWith(s"$it:"))
    val groupJobs = counters.jobsWhere(_ == Tracer.group(it, "Grouping.group"))
    val groupTasks = tasks("Grouping.group")
    val sparkOverhead =
      (Intervals.covered(groupJobs.map(j => (j.start, j.end))) -
        Intervals.covered(groupTasks.map(k => (k.launch, k.finish)))) / 1e3
    val catalog = t.prepared.catalog
    val pools = t.prepared.trans.groupBy(_.structKey).values.map(_.size)
    val changed = out.updated.filter { case (_, rid, v) => input.original(rid)._2 != v }
    val golden = dur("iteration")
    val ties = out.golden.count(_._2.isEmpty)
    Map(
      "RuleGen.generate.s" -> dur("RuleGen.generate"),
      "RuleGen.generate.task_s" -> taskS("RuleGen.generate"),
      "RuleGen.generate.result_mb" -> tasks("RuleGen.generate").map(_.resultBytes).sum / (1024.0 * 1024.0),
      "RuleGen.rules" -> catalog.size.toDouble,
      "RuleGen.occurrences" -> catalog.valuesIterator.map(r => (r.occA.size + r.occB.size).toLong).sum.toDouble,
      "Selection.select.s" -> dur("Selection.select"),
      "Selection.trans" -> t.prepared.trans.size.toDouble,
      "Structure.pools" -> pools.size.toDouble,
      "Structure.largest_pool" -> (0 +: pools.toSeq).max.toDouble,
      "Grouping.group.s" -> dur("Grouping.group"),
      "Grouping.group.task_s" -> taskS("Grouping.group"),
      "Grouping.group.max_task_s" -> maxTaskS("Grouping.group"),
      "Grouping.group.tasks" -> groupTasks.size.toDouble,
      "Grouping.group.spark_overhead_s" -> sparkOverhead,
      "Grouping.groups" -> t.prepared.ranked.size.toDouble,
      "Grouping.compression" -> t.prepared.trans.size.toDouble / math.max(1, t.prepared.ranked.size),
      "Grouping.rank.s" -> dur("Grouping.rank"),
      "Pivot.constTermFreq.s" -> dur("Pivot.constTermFreq"),
      "GraphBuilder.build.s" -> dur("GraphBuilder.build"),
      "GraphBuilder.graphs" -> replay.graphs.toDouble,
      "GraphBuilder.edges" -> replay.edges.toDouble,
      "GraphBuilder.labels" -> replay.labels.toDouble,
      "GraphBuilder.degenerate" -> replay.degenerate.toDouble,
      "Pivot.groupByPrograms.s" -> dur("Pivot.groupByPrograms"),
      "Pivot.search_s" -> replay.searchSeconds,
      "Pivot.max_pool_s" -> replay.maxPoolSeconds,
      "Pivot.distinct_labels" -> replay.distinctLabels.toDouble,
      "Expert.confirmAll.s" -> dur("Expert.confirmAll"),
      "Expert.shown" -> t.shown.toDouble,
      "Expert.approved" -> t.decisions.size.toDouble,
      "Expert.approval_ratio" -> t.decisions.size.toDouble / math.max(1, t.shown),
      "Applier.keyString.s" -> dur("Applier.keyString"),
      "Applier.applyAll.s" -> dur("Applier.applyAll"),
      "Applier.applyAll.task_s" -> taskS("Applier.applyAll"),
      "Applier.applyAll.max_task_s" -> maxTaskS("Applier.applyAll"),
      "Applier.changed_records" -> changed.length.toDouble,
      "Applier.changed_clusters" -> changed.map(_._1).distinct.length.toDouble,
      "Consensus.majority.s" -> dur("Consensus.majority"),
      "Consensus.golden" -> (out.golden.length - ties).toDouble,
      "Consensus.ties" -> ties.toDouble,
      "spark.jobs" -> counters.jobsWhere(_.startsWith(s"$it:")).size.toDouble,
      "spark.tasks" -> iterTasks.size.toDouble,
      "spark.shuffle_mb" -> iterTasks.map(_.shuffleBytes).sum / (1024.0 * 1024.0),
      "spark.scheduler_delay_s" -> iterTasks.map(_.delayMs).sum / 1e3,
      "spark.failed_tasks" -> iterTasks.count(_.failed).toDouble,
      "jvm.gc_s" -> gcSeconds,
      "trace.golden_s" -> golden,
      "trace.layer_share" -> LayerSpans.map(dur).sum / golden,
    )
  }

  private def run(opts: Opts, wl: Workload): Int = {
    val sf = opts.sf.getOrElse(wl.sf)
    new File(opts.out).mkdirs()

    // ---- set-up: session, input (median of InputReps), warm-up iterations
    val s0 = System.nanoTime()
    val spark = session(opts.out)
    val sc = spark.sparkContext
    val sessionS = seconds(s0)
    var input: Input = null
    val inputS = (1 to InputReps).map { _ =>
      if (input != null) input.release()
      val t0 = System.nanoTime()
      input = makeInput(spark, wl, sf, opts.seed)
      seconds(t0)
    }
    val counters = new SparkCounters
    val tracer   = new Tracer(sc)
    if (opts.trace) sc.addSparkListener(counters)

    def iterate(it: Int): Timed = {
      tracer.iteration = it
      if (opts.trace) tracedIteration(spark, input, wl, tracer) else plainIteration(spark, input, wl)
    }
    // Warm-ups skip the traced run's replay: it calls the same Pivot and
    // GraphBuilder code the Spark tasks have already warmed.
    def warmUp(): (Timed, Double) = {
      val t0 = System.nanoTime()
      (iterate(0), seconds(t0))
    }
    // The first warm-up's outputs are the reference: every measured iteration
    // must reproduce its digest. The oracle and quality figures depend only
    // on those outputs and are computed on them once, after the measured
    // iterations: the classes they load cost the JIT recompilation that
    // would otherwise land in the measured iterations.
    val (warm, firstWarmS) = warmUp()
    val reference = Checks.digest(output(spark, warm))
    val warmupTimes = firstWarmS +: (2 to WarmupIterations).map { _ =>
      val (t, s) = warmUp()
      t.updated.unpersist(blocking = true)
      s
    }
    val setupS = sessionS + median(inputS) + warmupTimes.sum
    println(f"workload ${wl.name} sf=$sf%.3f seed=${opts.seed} rows=${input.rows} " +
      f"rules=${warm.prepared.catalog.size} pools=${warm.prepared.trans.map(_.structKey).distinct.size} " +
      s"trace=${if (opts.trace) 1 else 0}")
    println(f"setup: session ${sessionS}%.3f s, input ${median(inputS)}%.3f s (median of $InputReps), " +
      f"warm-up iterations ${warmupTimes.map(t => f"$t%.3f").mkString(" ")} s")

    // ---- measured iterations
    val samples  = mutable.ArrayBuffer.empty[Map[String, Double]]
    var failed   = 0
    var attempted = 0
    var measured = 0.0
    def more: Boolean = opts.iterations match {
      case Some(n) => attempted < n
      case None    => attempted == 0 || measured < opts.seconds
    }
    while (more) {
      attempted += 1
      val it = attempted
      try {
        val gc0 = Jvm.gcMillis()
        val t = iterate(it)
        val gcS = (Jvm.gcMillis() - gc0) / 1e3
        measured += t.golden
        // Both modes force the collection, so that each iteration starts
        // from the same heap state and the tracing overhead compares alike.
        val heapMb = Jvm.retainedHeapMb()
        val out = output(spark, t)
        val problems = mutable.ArrayBuffer.empty[String]
        problems ++= Checks.structural(input, wl.cfg.agg, out)
        val digest = Checks.digest(out)
        if (digest != reference) {
          problems += s"digest $digest differs from the warm-up's $reference"
          problems ++= Checks.oracle(spark, t.updated)
        }
        val sample =
          if (opts.trace) {
            val r0 = System.nanoTime()
            val replay = tracer.span("replay")(
              Replay.run(tracer, t.prepared.trans, t.prepared.ranked, wl.cfg.agg, wl.cfg.pivot))
            measured += seconds(r0) // a traced run lasts about as long as an untraced one
            if (!replay.sameGroups) problems += "replayed pivot grouping differs from the Spark run"
            PerfbenchAccess.drainListeners(sc)
            layerMetrics(it, tracer, counters, t, out, input, replay, gcS)
          } else Map(
            "first_question_s" -> t.firstQuestion, "apply_s" -> t.apply, "golden_s" -> t.golden,
            "rows_per_s" -> input.rows / t.golden, "retained_heap_mb" -> heapMb)
        t.updated.unpersist(blocking = true)
        samples += sample
        println(f"iteration $it golden ${t.golden}%.3f s digest $digest" +
          (if (problems.isEmpty) "" else problems.mkString(" FAILED: ", "; ", "")))
        if (problems.nonEmpty) failed += 1
      } catch {
        case NonFatal(e) =>
          failed += 1
          println(s"iteration $it FAILED: $e")
          e.printStackTrace()
      }
    }

    if (samples.isEmpty) {
      Console.err.println("no iteration completed")
      return 1
    }

    // ---- evaluation of the reference outputs; an iteration that did not
    // fail already reproduced them, so an oracle failure is its failure too
    val e0 = System.nanoTime()
    val oracleProblems = Checks.oracle(spark, warm.updated)
    val (mcPrecision, pairMcc) = quality(spark, input, opts.seed, warm.updated)
    warm.updated.unpersist(blocking = true)
    println(f"evaluation: oracle and quality ${seconds(e0)}%.3f s" +
      (if (oracleProblems.isEmpty) "" else oracleProblems.mkString(" FAILED: ", "; ", "")))
    if (oracleProblems.nonEmpty) failed = attempted
    val (names, extra) =
      if (opts.trace) (PerLayer, Map("Metrics.pair_mcc" -> pairMcc))
      else (EndToEnd, Map("setup_s" -> setupS, "mc_precision" -> mcPrecision))
    val values = names.map { case (n, u) => (n, u, extra.getOrElse(n, median(samples.map(_(n)).toSeq))) }

    println(s"iterations ${samples.size} count")
    println(s"failed_iterations $failed count")
    if (!opts.trace) println(s"pair_mcc $pairMcc ratio")
    for ((n, u, v) <- values) println(s"$n $v $u")
    if (opts.trace) writeTrace(opts, wl, tracer)

    val metricsJson = values.map { case (n, u, v) =>
      val num = if (v.isNaN || v.isInfinite) 0.0 else v
      s""""$n": {"value": $num, "unit": "$u"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$metricsJson}}""")
    input.release()
    spark.stop()
    0
  }

  /** Spans of every measured iteration as JSON lines, plus the median self
    * time per span name on stdout.
    */
  private def writeTrace(opts: Opts, wl: Workload, tr: Tracer): Unit = {
    val spans = tr.all.filter(_.iteration > 0)
    val kids  = spans.groupBy(_.parent)
    def self(s: Span): Double =
      s.seconds - Intervals.covered(kids.getOrElse(s.id, Vector.empty).map(k => (k.startNs, k.endNs))) / 1e9
    val dir = new File(opts.out, "trace"); dir.mkdirs()
    val file = new File(dir, s"${wl.name}-seed${opts.seed}.jsonl")
    val origin = spans.map(_.startNs).minOption.getOrElse(0L)
    val pw = new PrintWriter(file, "UTF-8")
    try for (s <- spans.sortBy(_.startNs)) {
      val name = s.name.replace("\"", "")
      pw.println(f"""{"id": ${s.id}, "parent": ${s.parent}, "iteration": ${s.iteration}, "name": "$name", """ +
        f""""start_s": ${(s.startNs - origin) / 1e9}%.6f, "end_s": ${(s.endNs - origin) / 1e9}%.6f, "self_s": ${self(s)}%.6f}""")
    } finally pw.close()
    val perIteration = spans.groupBy(_.iteration).values.map(_.groupBy(_.name).view.mapValues(_.map(self).sum).toMap)
    for (name <- spans.map(_.name).distinct.sorted)
      println(f"self.$name ${median(perIteration.map(_.getOrElse(name, 0.0)).toSeq)}%.6f s")
    println(s"trace written to ${file.getPath}")
  }
}
