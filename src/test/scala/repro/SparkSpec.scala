package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `f` and counts the Spark jobs it starts, with a `SparkListener`. Listener
    * events arrive asynchronously, so a sentinel job runs after `f`: once the listener
    * has seen it, it has seen every job `f` started.
    */
  def jobsStartedBy[A](f: => A): (A, Int) = {
    val sc = spark.sparkContext
    val group = s"counted-${System.nanoTime()}"
    val sentinel = s"$group-sentinel"
    val jobs = new AtomicInteger
    val flushed = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case `group`    => jobs.incrementAndGet()
          case `sentinel` => flushed.countDown()
          case _          =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      val a = try f finally sc.clearJobGroup()
      sc.setJobGroup(sentinel, "listener flush")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(flushed.await(60, TimeUnit.SECONDS), "the sentinel job never reached the listener")
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  /** Runs `f` and returns the ids of the RDDs (DataFrame caches included) that it left
    * persisted and that were not persisted before.
    */
  def persistedBy[A](f: => A): (A, Set[Int]) = {
    def ids = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val before = ids
    val a = f
    (a, ids -- before)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
