package org.apache.spark

/** Access to Spark's listener bus, which is package-private: the benchmark
  * reads its listener's counters only after every queued event of the jobs
  * that have ended was delivered.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
