package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call: `parent` is the id of the enclosing span (-1 at a root);
  * every span of one iteration carries that iteration's number.
  */
final case class Span(id: Int, parent: Int, iteration: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. Each span also names the Spark jobs started
  * inside it: the job group is `<iteration>:<span name>`, so the listener can
  * attribute tasks to the innermost layer call.
  */
final class Tracer(sc: SparkContext) {
  private val GroupKey = "spark.jobGroup.id"
  private val spans    = mutable.ArrayBuffer.empty[Span]
  private var stack    = List.empty[Int]
  private var nextId   = 0
  var iteration        = 0

  def span[T](name: String)(body: => T): T = {
    val id     = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    val prevGroup = sc.getLocalProperty(GroupKey)
    sc.setLocalProperty(GroupKey, Tracer.group(iteration, name))
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      sc.setLocalProperty(GroupKey, prevGroup)
      spans += Span(id, parent, iteration, name, t0, t1)
    }
  }

  def of(iteration: Int): Vector[Span] = spans.iterator.filter(_.iteration == iteration).toVector

  def all: Vector[Span] = spans.toVector
}

object Tracer {
  def group(iteration: Int, name: String): String = s"$iteration:$name"
}

object Intervals {

  /** Length of the union of `[start, end)` intervals. */
  def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS  = Long.MinValue
    var curE  = Long.MinValue
    for ((s, e) <- intervals.sortBy(_._1)) {
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }
}

/** Per-task and per-job records, attributed to the job group that was set
  * when the job started. Times are wall-clock milliseconds.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val jobStart   = mutable.HashMap.empty[Int, (String, Long)]
  private val jobs       = mutable.ArrayBuffer.empty[Job]
  private val tasks      = mutable.ArrayBuffer.empty[Task]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobStart(e.jobId) = (g, e.time)
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (g, t) => jobs += Job(g, t, e.time) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val info = e.taskInfo
    val m    = Option(e.taskMetrics)
    val run  = m.map(_.executorRunTime).getOrElse(0L)
    val delay = m.fold(0L) { tm =>
      math.max(0L, info.duration - tm.executorRunTime - tm.executorDeserializeTime -
        tm.resultSerializationTime - info.gettingResultTime)
    }
    tasks += Task(
      group = stageGroup.getOrElse(e.stageId, ""),
      launch = info.launchTime, finish = info.finishTime, runMs = run,
      resultBytes = m.map(_.resultSize).getOrElse(0L),
      shuffleBytes = m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
      delayMs = delay, failed = !info.successful)
  }

  def jobsWhere(p: String => Boolean): Vector[Job]   = synchronized(jobs.filter(j => p(j.group)).toVector)
  def tasksWhere(p: String => Boolean): Vector[Task] = synchronized(tasks.filter(t => p(t.group)).toVector)
}

object SparkCounters {
  final case class Job(group: String, start: Long, end: Long)
  final case class Task(group: String, launch: Long, finish: Long, runMs: Long, resultBytes: Long,
                        shuffleBytes: Long, delayMs: Long, failed: Boolean)
}

object Jvm {
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap in use after forced full collections, in MiB. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
