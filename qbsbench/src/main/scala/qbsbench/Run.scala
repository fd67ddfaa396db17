package qbsbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines.BiBfs
import repro.core.QbS
import repro.graph.{Generators, GraphOps, LocalGraph}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** One benchmark process: set-up, warm-up, the timed window, the correctness gate
  * and, with `--trace 1`, the per-layer trace.
  */
final class Run(spark: SparkSession, args: Main.Args, sparkStartS: Double) {
  import Main._
  import Run.Setup

  private val probe = if (args.trace) Some(new Probe(spark.sparkContext)) else None
  private lazy val layers = new Layers(spark, probe.get)

  private val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0L
  private val report = mutable.LinkedHashMap[String, Any]("config" -> configOf(spark, args))
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private def metric(name: String, value: Double, unit: String): Unit =
    metrics(name) = (value, unit)

  /** Pairs drawn so far in this run, shared by every stream so none repeats. */
  private val used = mutable.HashSet.empty[(Long, Long)]
  /** Decomposed builds of a traced run, in order. */
  private val builds = mutable.ArrayBuffer.empty[Layers.Build]

  /** The report line and the result line. */
  def execute(): Seq[String] = {
    args.workload match {
      case "qbs-hub" => qbsWorkload()
      case "build"   => buildWorkload()
    }
    report("attempted") = attempted
    report("failed") = failures.size
    report("failures") = failures.toSeq
    // set-up runs alike in both modes; a traced run reports only the layers
    val reported = metrics.filter { case (k, _) => EndToEnd.contains(k) != args.trace }
    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> failures.isEmpty, "attempted" -> attempted, "failed" -> failures.size,
      "metrics" -> reported.map { case (k, (v, u)) =>
        k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u) })
    Seq(json(report), json(result))
  }

  // ---- set-up ----------------------------------------------------------------------

  private def buildIndex(op: String, edges: DataFrame): QbS.Index =
    if (args.trace) {
      val b = layers.build(op, edges, NumLandmarks)
      builds += b
      b.index
    } else QbS.build(spark, edges, NumLandmarks)

  /** [[SetupReps]] set-ups, each generating the graph and building its QbS index; the
    * last one is kept. `index_mb` is the Spark storage of what the build left
    * persisted, plus the driver-side fields of the index.
    */
  private def setUp(graph: Generators.Spec): Setup = {
    val setupS = mutable.ArrayBuffer.empty[Double]
    val buildMs = mutable.ArrayBuffer.empty[Double]
    var last: Option[(DataFrame, QbS.Index)] = None
    var indexMb = 0.0
    for (i <- 1 to SetupReps) {
      last.foreach { case (edges, index) =>
        release(index)
        edges.unpersist(blocking = true)
      }
      val (edges, genMs) = timedMs(loadGraph(spark, graph))
      val before = persistedIds(spark)
      val (index, ms) = timedMs(buildIndex(s"setup$i", edges))
      val held = storageBytes(spark, persistedIds(spark) -- before)
      indexMb = (held + driverBytes(index)) / (1024.0 * 1024.0)
      setupS += (genMs + ms) / 1e3
      buildMs += ms
      last = Some((edges, index))
    }
    report("setup") = mutable.LinkedHashMap[String, Any](
      "graph" -> graph.name, "spark_start_s" -> sparkStartS, "setup_s" -> setupS.toSeq,
      "index_build_ms" -> buildMs.toSeq, "index_mb" -> indexMb)
    metric("setup_s", sparkStartS + median(setupS.toSeq), "s")
    metric("index_mb", indexMb, "MB")
    Setup(last.get._1, last.get._2, buildMs.toSeq)
  }

  // ---- warm-up ---------------------------------------------------------------------

  /** True once neither of the last two batch costs is [[WarmPlateau]] below the best
    * earlier one: the cost per unit of work has stopped falling. Two batches, because
    * one batch's noise is larger than the step the rule looks for.
    */
  private def plateaued(costs: Seq[Double]): Boolean =
    costs.size >= 3 && costs.takeRight(2).min >= costs.dropRight(2).min * (1 - WarmPlateau)

  /** Run batches of `op` until [[plateaued]] or [[WarmCapSeconds]]. `op` returns the
    * work it did (traversal levels for a query, so pairs of different length
    * compare); a batch's cost is its time over its work. `history` holds batch costs
    * already observed (the set-up builds, for the build workload).
    */
  private def warmUp(batch: Int, history: Seq[Double])(op: => Double): Unit = {
    val costs = mutable.ArrayBuffer.from(history)
    val t0 = System.nanoTime()
    var ops = 0
    var errors = 0
    while (!plateaued(costs.toSeq) && secondsSince(t0) < WarmCapSeconds) {
      var ms = 0.0
      var work = 0.0
      for (_ <- 1 to batch if secondsSince(t0) < WarmCapSeconds) {
        val (w, t) = timedMs(Try(op))
        w.fold(_ => errors += 1, work += _)
        ms += t
        ops += 1
      }
      costs += ms / work.max(1)
    }
    report("warmup") = mutable.LinkedHashMap[String, Any](
      "ops" -> ops, "seconds" -> secondsSince(t0), "batch_cost" -> costs.toSeq,
      "stopped_by" -> (if (plateaued(costs.toSeq)) "plateau" else "cap"),
      "errors" -> errors)
  }

  // ---- timed window ----------------------------------------------------------------

  /** Closed loop, one client: run `op` until the run's seconds have passed (or
    * [[MaxTimedOps]] ran) and at least `minOps` ran; returns the results and the
    * window length, and records GC, CPU steal and load average over the window.
    */
  private def window[A](minOps: Int)(op: Int => A): (Seq[A], Double) = {
    val host = Host.Window.open()
    val t0 = System.nanoTime()
    val out = mutable.ArrayBuffer.empty[A]
    while (out.size < minOps || (secondsSince(t0) < args.seconds && out.size < MaxTimedOps))
      out += op(out.size)
    val seconds = secondsSince(t0)
    val h = host.close()
    report("window") = mutable.LinkedHashMap[String, Any](
      "ops" -> out.size, "seconds" -> seconds, "gc_ms" -> h.gcMs,
      "process_cpu_ms_per_op" -> h.cpuMs / out.size, "steal_share" -> h.stealShare,
      "loadavg" -> h.loadAvg)
    if (args.trace) {
      metric("host.steal_share", h.stealShare, "share")
      metric("host.loadavg", h.loadAvg, "load")
    }
    (out.toSeq, seconds)
  }

  private def opMetrics(ms: Seq[Double], seconds: Double): Unit = {
    metric("op_p50_ms", median(ms), "ms")
    metric("op_p90_ms", quantile(ms, 0.9), "ms")
    metric("ops_per_s", ms.size / seconds, "1/s")
  }

  /** The correctness gate: an answer against `LocalGraph`. */
  private def gate(local: LocalGraph, pair: (Long, Long), answer: Try[Answer],
                   what: String): Unit = {
    attempted += 1
    answer match {
      case Failure(e) => failures += s"$what SPG$pair threw $e"
      case Success(a) => check(local, pair._1, pair._2, a).foreach(m => failures += s"$what $m")
    }
  }

  // ---- qbs-hub ---------------------------------------------------------------------

  private def qbsWorkload(): Unit = {
    val graph = spec("WK")
    val local = LocalGraph(Generators.localEdges(graph))
    val s = setUp(graph)
    val landmarks = s.index.landmarks.toSet
    def hasLandmark(p: (Long, Long)) = landmarks(p._1) || landmarks(p._2)
    def query(p: (Long, Long)): QbS.Answer = QbS.query(s.index, p._1, p._2)
    def answer(a: QbS.Answer) = Answer(a.edges, a.distance)

    val warm = new PairStream(local.vertices, args.seed * 2 + 1, used)
    warmUp(WarmBatchQueries, Nil)(query(warm.next()).levels.toDouble)
    val timed = new StratifiedPairs(local, args.seed * 2, used)

    if (!args.trace) {
      val (runs, seconds) = window(1) { _ =>
        val p = timed.next()
        val (a, ms) = timedMs(Try(query(p)))
        (p, a.map(answer), ms)
      }
      val (_, gateMs) = timedMs(runs.foreach { case (p, a, _) => gate(local, p, a, "QbS") })
      report("gate_seconds") = gateMs / 1e3
      opMetrics(runs.map(_._3), seconds)
      report("landmark_endpoint_pairs") = runs.count(r => hasLandmark(r._1))
      report("distance_classes") = mutable.LinkedHashMap[String, Any](
        "shares" -> timed.shares, "timed_pairs" -> timed.classCounts)
    } else {
      // Each pair runs untraced (the timed answer) and then decomposed; both must agree.
      val (runs, _) = window(TracePairs) { i =>
        val p = timed.next()
        val (a, ms) = timedMs(Try(query(p)))
        val q = tracedQuery(i, s.index, p)
        agree(p, a.map(answer), q.map(_.answer))
        (p, a.map(answer), ms, q.map(_.millis).getOrElse(Double.NaN))
      }
      runs.foreach { case (p, a, _, _) => gate(local, p, a, "QbS") }
      metric("trace.overhead_ms",
        median(runs.map(_._4).filterNot(_.isNaN)) - median(runs.map(_._3)), "ms")
      metric("pairs.landmark_endpoint_share",
        runs.count(r => hasLandmark(r._1)).toDouble / runs.size, "share")
      sampleBibfs(local, s.edges, runs.take(TracePairs).map(_._1))
      layerMetrics(local)
    }
  }

  private val qbsTraced = mutable.ArrayBuffer.empty[((Long, Long), Try[Layers.Query])]
  private val bibfsTraced = mutable.ArrayBuffer.empty[(BiBfs.Result, Double)]
  private val gcPerQuery = mutable.ArrayBuffer.empty[Double]

  /** One decomposed QbS query, tagged `qbs<i>`, with the GC time it saw. */
  private def tracedQuery(i: Int, index: QbS.Index, p: (Long, Long)): Try[Layers.Query] = {
    val gc0 = Host.gcMillis()
    val q = Try(layers.query(s"qbs$i", index, p._1, p._2))
    gcPerQuery += (Host.gcMillis() - gc0).toDouble
    qbsTraced += ((p, q))
    q
  }

  /** The decomposed query must give the same answer as `QbS.query`. */
  private def agree(p: (Long, Long), plain: Try[Answer], traced: Try[Answer]): Unit =
    if (plain.toOption != traced.toOption) {
      attempted += 1
      failures += s"SPG$p: decomposed query gave ${traced.map(a => (a.distance, a.edges.size))}, " +
        s"QbS.query ${plain.map(a => (a.distance, a.edges.size))}"
    }

  /** Bi-BFS on `pairs` over cached symmetric G, each answer gated. */
  private def sampleBibfs(local: LocalGraph, edges: DataFrame, pairs: Seq[(Long, Long)]): Unit = {
    val gSym = GraphOps.materialize(GraphOps.symmetric(edges))
    pairs.zipWithIndex.foreach { case (p, i) =>
      val r = Try(layers.bibfs(s"bibfs$i", gSym, p._1, p._2))
      r.foreach(bibfsTraced += _)
      gate(local, p, r.map { case (res, _) => Answer(res.edges, res.distance) }, "Bi-BFS")
    }
    gSym.unpersist(blocking = true)
  }

  // ---- build workload --------------------------------------------------------------

  private def buildWorkload(): Unit = {
    val graph = spec("BA")
    val local = LocalGraph(Generators.localEdges(graph))
    val s = setUp(graph)
    var index = s.index
    val ref = countsOf(index)
    report("index_counts") = Seq(ref._1, ref._2, ref._3)
    labelCheck(local, index)

    /** Replace the live index by a fresh build; returns the build's time. */
    def rebuild(): Double = {
      release(index)
      val (ix, ms) = timedMs(QbS.build(spark, s.edges, NumLandmarks))
      index = ix
      ms
    }
    def sameCounts(what: String): Unit = {
      attempted += 1
      if (countsOf(index) != ref)
        failures += s"$what: (labels, meta edges, Δ rows) ${countsOf(index)}, first build $ref"
    }

    warmUp(1, s.buildMs) { rebuild(); 1.0 }

    if (!args.trace) {
      val (ms, seconds) = window(1) { _ =>
        val ms = rebuild()
        sameCounts("build")
        ms
      }
      opMetrics(ms, seconds)
    } else {
      // Each op is one untraced build followed by one decomposed build.
      val (runs, _) = window(2) { i =>
        val ms = rebuild()
        sameCounts("build")
        release(index)
        index = buildIndex(s"timed$i", s.edges)
        sameCounts("decomposed build")
        (ms, builds.last.millis)
      }
      metric("trace.overhead_ms", median(runs.map(_._2)) - median(runs.map(_._1)), "ms")
      val sample = new StratifiedPairs(local, args.seed * 2, used)
      val pairs = Seq.fill(TracePairs)(sample.next())
      metric("pairs.landmark_endpoint_share",
        pairs.count { case (u, v) => index.landmarks.contains(u) || index.landmarks.contains(v) }
          .toDouble / pairs.size, "share")
      pairs.zipWithIndex.foreach { case (p, i) =>
        val plain = Try(qbsAnswer(index, p._1, p._2))
        val q = tracedQuery(i, index, p)
        gate(local, p, plain, "QbS")
        agree(p, plain, q.map(_.answer))
      }
      sampleBibfs(local, s.edges, pairs)
      layerMetrics(local)
    }
  }

  /** Def. 4.2 on a seeded sample of non-landmark vertices: `(v, r, d)` is a label iff
    * a shortest `v`–`r` path of length `d` has no other landmark.
    */
  private def labelCheck(local: LocalGraph, index: QbS.Index): Unit = {
    val lms = index.landmarks.toSet
    val rnd = new scala.util.Random(args.seed)
    val candidates = local.vertices.filterNot(lms)
    val sample = Seq.fill(LabelCheckVertices)(candidates(rnd.nextInt(candidates.length))).distinct
    val got = index.labels.filter(col("v").isin(sample: _*)).select("v", "lm", "dist").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getInt(2)).toMap
    attempted += 1
    val t0 = System.nanoTime()
    val bad = for {
      v <- sample; r <- index.landmarks
      want = local.landmarkFreeDistance(v, r, lms)
      if got.get((v, r)) != want
    } yield s"label($v, $r) = ${got.get((v, r))}, Def. 4.2 gives $want"
    if (bad.nonEmpty) failures += s"label check: ${bad.take(5).mkString("; ")}"
    report("label_check") = mutable.LinkedHashMap[String, Any](
      "vertices" -> sample, "seconds" -> secondsSince(t0))
  }

  // ---- per-layer metrics -------------------------------------------------------------

  /** Every per-layer metric, from the decomposed builds and queries of this run.
    * Counts come from the first [[TracePairs]] pairs only, so they repeat exactly for
    * a seed; times come from every traced operation.
    */
  private def layerMetrics(local: LocalGraph): Unit = {
    val counts = probe.get.totals()
    def opCounts(prefix: String): Seq[Probe.Counts] =
      counts.iterator.collect { case (k, c) if k.startsWith(prefix) => c }.toSeq
    val MB = 1024.0 * 1024.0

    for (layer <- Seq("build.landmarks", "build.labelling", "build.meta", "build.delta",
                      "build.sparsify"))
      metric(s"${layer}_ms", median(builds.map(_.spans(layer)).toSeq), "ms")
    metric("build.labelling_jobs",
      median(builds.map(b => opCounts(s"${b.op}/build.labelling").map(_.jobs).sum.toDouble).toSeq),
      "count")
    metric("build.labelling_shuffle_mb",
      median(builds.map(b => opCounts(s"${b.op}/build.labelling").map(_.shuffleBytes).sum / MB).toSeq),
      "MB")
    metric("build.spark_jobs",
      median(builds.map(b => opCounts(s"${b.op}/").map(_.jobs).sum.toDouble).toSeq), "count")
    metric("build.gc_ms", median(builds.map(_.gcMs.toDouble).toSeq), "ms")
    val (labels, metaEdges, deltaRows) = countsOf(builds.last.index)
    metric("build.label_entries", labels.toDouble, "count")
    metric("build.meta_edges", metaEdges.toDouble, "count")
    metric("build.delta_rows", deltaRows.toDouble, "count")

    val qs = qbsTraced.collect { case (p, Success(q)) => (p, q) }.toSeq
    val guided = qs.collect { case (p, q) if q.guided.isDefined => (p, q, q.guided.get) }
    val exact = guided.filter { case (p, _, _) => qbsTraced.take(TracePairs).exists(_._1 == p) }
    def share(f: ((Long, Long), Layers.Query, repro.core.GuidedSearch.Result) => Boolean) =
      exact.count(f.tupled).toDouble / exact.size.max(1)
    metric("qbs.label_fetch_ms", median(guided.map(_._2.spans("qbs.label_fetch"))), "ms")
    metric("sketch.compute_ms", median(guided.map(_._2.spans("sketch.compute"))), "ms")
    metric("sketch.dtop_exact_share",
      share { case ((u, v), q, _) => q.sketch.get.dTop == local.distance(u, v) }, "share")
    val guidedMs = guided.map(_._2.spans("guided.run"))
    metric("guided.run_ms_p50", median(guidedMs), "ms")
    metric("guided.run_ms_p90", quantile(guidedMs, 0.9), "ms")
    metric("guided.levels_per_query", mean(exact.map(_._3.levels.toDouble)), "count")
    metric("guided.edges_per_query", mean(exact.map(_._3.edgesTraversed.toDouble)), "count")
    metric("guided.reverse_share", share { case (_, _, g) => g.usedReverse }, "share")
    metric("guided.recover_share", share { case (_, _, g) => g.usedRecover }, "share")
    metric("guided.spg_edges_per_edge_traversed",
      exact.map(_._3.edges.size.toDouble).sum / exact.map(_._3.edgesTraversed.toDouble).sum.max(1),
      "ratio")

    val bs = bibfsTraced.toSeq
    metric("bibfs.spg_ms", median(bs.map(_._2)), "ms")
    metric("bibfs.levels_per_query", mean(bs.map(_._1.levels.toDouble)), "count")
    metric("bibfs.edges_per_query", mean(bs.map(_._1.edgesTraversed.toDouble)), "count")

    // Spark work per decomposed QbS query, over the first TracePairs pairs.
    val perQuery = (0 until TracePairs).map(i => opCounts(s"qbs$i/"))
    metric("spark.jobs_per_query", mean(perQuery.map(_.map(_.jobs).sum.toDouble)), "count")
    metric("spark.tasks_per_query", mean(perQuery.map(_.map(_.tasks).sum.toDouble)), "count")
    metric("spark.job_ms_p50", median(perQuery.flatMap(_.flatMap(_.jobMillis))), "ms")
    metric("jvm.gc_ms_per_query", mean(gcPerQuery.toSeq), "ms")
  }
}

object Run {
  /** The graph and index a run keeps after set-up, and every set-up's build time. */
  private final case class Setup(edges: DataFrame, index: QbS.Index, buildMs: Seq[Double])
}
