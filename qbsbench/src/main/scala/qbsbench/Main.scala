package qbsbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.util.SizeEstimator
import repro.core.QbS
import repro.graph.{Generators, GraphOps, LocalGraph}

/** The QbS benchmark: one workload per process, closed loop with one client.
  *
  * Usage: `Main --workload <qbs-hub|build> --seed <n> --seconds <s> --trace <0|1>`.
  * The last line of standard output is the result object; the line before it
  * reports the pinned configuration, set-up, warm-up, host readings and every
  * failed operation.
  *
  * Workloads (README.md says why each exists):
  *   - `qbs-hub`: `QbS.query` on the WikiTalk analog, index built during set-up;
  *   - `build`:   repeated `QbS.build` on the Baidu analog, no queries.
  *
  * The operation a workload times is a query on the first and a build on the
  * second; the end-to-end metrics `op_p50_ms`, `op_p90_ms` and `ops_per_s` refer to it.
  */
object Main {

  // ---- pinned configuration (recorded in every report) ------------------------------
  val Master = "local[1]"
  val EdgePartitions = 1
  val ShufflePartitions = 2
  /** Jobs, stages and SQL executions Spark's status store retains. */
  val RetainedJobs = 50
  val NumLandmarks = 20
  val Tier = 1.0
  /** Set-ups per run; `setup_s` reports their median. */
  val SetupReps = 3
  /** Warm-up: batches of this many queries (builds run one per batch)... */
  val WarmBatchQueries = 10
  /** ...until two batches in a row are no longer this share cheaper per unit of work
    * than the best earlier batch... */
  val WarmPlateau = 0.03
  /** ...or this many seconds of warm-up have run. */
  val WarmCapSeconds = 8.0
  /** Upper bound on timed operations, so the correctness gate after the window
    * stays within the run's time limit even when operations get very fast.
    */
  val MaxTimedOps = 1000
  /** Pairs every traced run decomposes, so its per-pair counts repeat exactly. */
  val TracePairs = 10
  /** Vertices whose labels are checked against Def. 4.2 once per `build` run. */
  val LabelCheckVertices = 3

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val a = Args(need("--workload"), need("--seed").toLong, need("--seconds").toInt,
      need("--trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      })
    require(Workloads.contains(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  val Workloads = Seq("qbs-hub", "build")

  /** The metrics of an untraced run; a traced run reports the per-layer ones. */
  val EndToEnd = Set("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "index_mb")

  def spec(abbrev: String): Generators.Spec =
    Generators.datasets(Tier).find(_.abbrev == abbrev).get

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = SparkSession.builder()
      .master(Master).appName("qbsbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      // The status store keeps 1000 jobs and SQL executions by default; one query
      // runs about 15 jobs, so it fills during a run and the periodic clean-up of
      // the excess makes query times rise and fall. A small store keeps them flat.
      .config("spark.ui.retainedJobs", RetainedJobs)
      .config("spark.ui.retainedStages", RetainedJobs)
      .config("spark.ui.retainedTasks", 10 * RetainedJobs)
      .config("spark.sql.ui.retainedExecutions", RetainedJobs)
      .getOrCreate()
    val sparkStartS = (System.currentTimeMillis() - jvmStart) / 1e3
    val run = new Run(spark, args, sparkStartS)
    val out =
      try run.execute()
      finally spark.stop()
    out.foreach(println)
    Console.out.flush()
    // Spark leaves non-daemon threads behind; the result is printed, so end here.
    sys.exit(0)
  }

  // ---- small statistics helpers --------------------------------------------------------

  /** Linear-interpolation quantile (as numpy's default) of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted.toIndexedSeq
    if (s.isEmpty) return Double.NaN
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt; val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  def timedMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e6)
  }

  // ---- JSON output ---------------------------------------------------------------------

  def json(v: Any): String = v match {
    case s: String     => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case d: Double     => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int        => n.toString
    case n: Long       => n.toString
    case b: Boolean    => b.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(json).mkString("[", ", ", "]")
    case other         => json(other.toString)
  }

  /** Pinned configuration of this process, for the report line. */
  def configOf(spark: SparkSession, args: Args): Map[String, Any] = Map(
    "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds,
    "trace" -> args.trace, "spark_master" -> spark.sparkContext.master,
    "spark_version" -> spark.version, "edge_partitions" -> EdgePartitions,
    "shuffle_partitions" -> ShufflePartitions, "status_store_retained" -> RetainedJobs,
    "adaptive_query_execution" -> spark.conf.get("spark.sql.adaptive.enabled"),
    "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "jvm" -> System.getProperty("java.vm.version"),
    "cpus_visible" -> Runtime.getRuntime.availableProcessors,
    "landmarks" -> NumLandmarks, "tier" -> Tier, "setup_reps" -> SetupReps,
    "warmup_rule" -> (s"batches of $WarmBatchQueries queries (cost: ms per traversal " +
      s"level) or 1 build (cost: ms) until two batch costs in a row are less than " +
      s"${(WarmPlateau * 100).round}% below the best earlier one, capped at " +
      s"${WarmCapSeconds.round} s"),
    "max_timed_ops" -> MaxTimedOps, "trace_pairs" -> TracePairs,
    "label_check_vertices" -> LabelCheckVertices)

  /** Ids of the RDDs Spark currently keeps persisted (DataFrame caches included). An
    * unpersist removes its RDD from this set at once, even when the blocks go later.
    */
  def persistedIds(spark: SparkSession): Set[Int] =
    spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** Bytes Spark stores (memory plus disk) for the RDDs `ids`. */
  def storageBytes(spark: SparkSession, ids: Set[Int]): Long =
    spark.sparkContext.getRDDStorageInfo.filter(i => ids(i.id))
      .map(i => i.memSize + i.diskSize).sum

  /** Driver-side size of the index fields that are not DataFrames. */
  def driverBytes(index: QbS.Index): Long =
    SizeEstimator.estimate(Array[AnyRef](index.landmarks, index.meta,
      Array(index.labelEntries, index.deltaEntries), Array(index.buildMillis)))

  def release(index: QbS.Index): Unit =
    Seq(index.labels, index.delta, index.gMinusSym).foreach(_.unpersist(blocking = true))

  /** Counts that identify an index's content: label entries, meta edges, Δ rows. */
  def countsOf(index: QbS.Index): (Long, Int, Long) =
    (index.labelEntries, index.meta.edges.size, index.deltaEntries)

  /** The canonical edges of `spec`, cached, as the program's input. */
  def loadGraph(spark: SparkSession, spec: Generators.Spec): DataFrame =
    GraphOps.materialize(Generators.edges(spark, spec, EdgePartitions))

  /** An answer of either query engine: canonical SPG edges and distance. */
  final case class Answer(edges: Set[(Long, Long)], distance: Option[Int])

  /** Mismatch against the driver-side reference, or None if the answer is exact. */
  def check(local: LocalGraph, u: Long, v: Long, a: Answer): Option[String] = {
    val refD = local.distance(u, v)
    val refE = local.spg(u, v)
    if (a.distance != refD) Some(s"SPG($u,$v): distance ${a.distance} != reference $refD")
    else if (a.edges != refE)
      Some(s"SPG($u,$v): ${a.edges.size} edges, reference ${refE.size}; " +
        s"missing ${(refE -- a.edges).take(3)}, extra ${(a.edges -- refE).take(3)}")
    else None
  }

  def qbsAnswer(index: QbS.Index, u: Long, v: Long): Answer = {
    val a = QbS.query(index, u, v); Answer(a.edges, a.distance)
  }
}
