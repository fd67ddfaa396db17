package qbsbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Readings of the JVM and the host that every run records around its timed
  * window, so a slow window can be put down to the machine rather than the program.
  */
object Host {

  /** Total GC time of the JVM so far, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Cumulative `(steal, busy)` CPU jiffies of the machine from `/proc/stat`, where
    * busy is every non-idle state including steal; zeros if unreadable.
    */
  def cpuJiffies(): (Long, Long) =
    try {
      val f = Files.readAllLines(Paths.get("/proc/stat"), StandardCharsets.UTF_8).get(0)
        .trim.split("\\s+").drop(1).map(_.toLong)
      // user nice system idle iowait irq softirq steal [guest guest_nice]; guest time
      // is already counted in user and nice
      val steal = if (f.length > 7) f(7) else 0L
      (steal, f.take(8).sum - f(3) - f(4))
    } catch { case _: Exception => (0L, 0L) }

  /** One-minute load average from `/proc/loadavg`; -1 if unreadable. */
  def loadAvg(): Double =
    try Files.readAllLines(Paths.get("/proc/loadavg")).get(0).split(" ")(0).toDouble
    catch { case _: Exception => -1.0 }

  /** CPU time of this process so far, in ms. */
  def processCpuMillis(): Double =
    ManagementFactory.getOperatingSystemMXBean match {
      case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime / 1e6
      case _ => Double.NaN
    }

  /** Readings over a window opened by [[Window.open]]: GC time, this process's CPU
    * time, the share of the machine's wanted CPU time that the hypervisor withheld
    * (steal over busy), and the load average at the end.
    */
  final class Window private (gc0: Long, cpu0: Double, jiffies0: (Long, Long)) {
    def close(): Window.Reading = {
      val (s1, b1) = cpuJiffies()
      val busy = b1 - jiffies0._2
      Window.Reading(gcMillis() - gc0, processCpuMillis() - cpu0,
        if (busy > 0) (s1 - jiffies0._1).toDouble / busy else 0.0, loadAvg())
    }
  }
  object Window {
    final case class Reading(gcMs: Long, cpuMs: Double, stealShare: Double, loadAvg: Double)
    def open(): Window = new Window(gcMillis(), processCpuMillis(), cpuJiffies())
  }
}

/** Spark listener that attributes jobs, tasks and shuffle bytes to the span tag set
  * with [[Probe.tagged]] on the driver thread when the job was submitted.
  *
  * Attribution goes through the job's local properties, so the asynchronous
  * listener bus never has to be drained between operations; [[totals]] drains it
  * once, by waiting for a marker job submitted after everything else.
  */
final class Probe(sc: SparkContext) extends SparkListener {
  import Probe._

  private val stageTag = mutable.HashMap.empty[Int, String]
  private val jobStart = mutable.HashMap.empty[Int, (String, Long)]
  private val byTag = mutable.HashMap.empty[String, Counts]

  sc.addSparkListener(this)

  /** Run `f` with its Spark jobs attributed to `tag`. */
  def tagged[A](tag: String)(f: => A): A = {
    val prev = sc.getLocalProperty(TagKey)
    sc.setLocalProperty(TagKey, tag)
    try f finally sc.setLocalProperty(TagKey, prev)
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).getOrElse("")
    e.stageIds.foreach(stageTag(_) = tag)
    jobStart(e.jobId) = (tag, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (tag, t0) =>
      val c = counts(tag)
      c.jobs += 1
      c.jobMillis += (e.time - t0).toDouble
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = counts(stageTag.getOrElse(e.stageId, ""))
    c.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      c.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  private def counts(tag: String): Counts = byTag.getOrElseUpdate(tag, new Counts)

  /** Counts per tag of every job submitted before this call. */
  def totals(): Map[String, Counts] = {
    tagged(DrainTag)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.currentTimeMillis() + 30000
    while (synchronized(!byTag.get(DrainTag).exists(_.jobs > drained)) &&
           System.currentTimeMillis() < deadline)
      Thread.sleep(10)
    synchronized {
      drained = byTag.get(DrainTag).map(_.jobs).getOrElse(0L)
      byTag.iterator.filter(_._1 != DrainTag).map { case (k, v) => k -> v.copy }.toMap
    }
  }
  private var drained = 0L
}

object Probe {
  private val TagKey = "qbsbench.tag"
  private val DrainTag = "qbsbench.drain"

  /** Work attributed to one tag; `jobMillis` holds each job's submit-to-end time. */
  final class Counts {
    var jobs = 0L
    var tasks = 0L
    var shuffleBytes = 0L
    val jobMillis = mutable.ArrayBuffer.empty[Double]
    def copy: Counts = {
      val c = new Counts
      c.jobs = jobs; c.tasks = tasks; c.shuffleBytes = shuffleBytes
      c.jobMillis ++= jobMillis
      c
    }
  }
}
