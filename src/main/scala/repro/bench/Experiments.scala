package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{BiBfs, Ppl}
import repro.core.{Labelling, QbS}
import repro.graph.{Csr, Generators, GraphOps, GraphStats}
import scala.util.Random

/** Shared measurement harness behind the Table-1/2/3 jobs and benches.
  *
  * One [[measure]] call per dataset analog gathers everything the three paper tables
  * need: Table-1 statistics, construction times for QbS-P / QbS / PPL / ParentPPL
  * (the latter two under the scaled DNF/OOE caps), average online query times for
  * QbS / PPL / ParentPPL / Bi-BFS over the same sampled pairs, work counters, and
  * labelling sizes under the paper's byte conventions (§6.1–6.2).
  */
object Experiments {

  /** Knobs, overridable via environment (REPRO_TIER, REPRO_LANDMARKS, REPRO_QUERIES,
    * REPRO_PPL_BUDGET_MS, REPRO_PPL_MAX_ENTRIES, REPRO_DATASETS).
    *
    * The caps are the scaled analogs of the paper's ">24 h" DNF and "512 GB" OOE
    * limits (DESIGN.md §3.2).
    */
  final case class Config(tier: Double, numLandmarks: Int, queriesPerGraph: Int,
                          pplBudgetMillis: Long, pplMaxEntries: Long,
                          maxDatasets: Int, seed: Long)

  def fromEnv(): Config = {
    def env(k: String): Option[String] = sys.env.get(k).filter(_.nonEmpty)
    Config(
      tier = env("REPRO_TIER").map(_.toDouble).getOrElse(1.0),
      numLandmarks = env("REPRO_LANDMARKS").map(_.toInt).getOrElse(20),
      queriesPerGraph = env("REPRO_QUERIES").map(_.toInt).getOrElse(6),
      pplBudgetMillis = env("REPRO_PPL_BUDGET_MS").map(_.toLong).getOrElse(8500L),
      pplMaxEntries = env("REPRO_PPL_MAX_ENTRIES").map(_.toLong).getOrElse(2000000L),
      maxDatasets = env("REPRO_DATASETS").map(_.toInt).getOrElse(12),
      seed = 42L)
  }

  final case class QueryStats(n: Int, avgMs: Double, avgEdgesTraversed: Double)

  /** Everything measured for one dataset analog. */
  final case class Measurement(
      spec: Generators.Spec,
      stats: GraphStats.Stats,
      numLandmarks: Int,
      // construction
      qbsPBuildSec: Double, qbsBuildSec: Double,
      pplStatus: Ppl.Status, pplBuildSec: Double,
      parentStatus: Ppl.Status, parentBuildSec: Double,
      // sizes
      qbsLabelEntries: Long, qbsDeltaEntries: Long,
      pplEntries: Long, parentEntries: Long, parentRefs: Long,
      // online
      qbs: QueryStats, bibfs: QueryStats,
      ppl: Option[QueryStats], parent: Option[QueryStats],
      coverage: Map[String, Int])

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Run the full measurement for one dataset analog. */
  def measure(spark: SparkSession, spec: Generators.Spec, cfg: Config): Measurement = {
    def log(m: String): Unit = Console.err.println(s"[bench:${spec.abbrev}] $m")

    val edges = GraphOps.materialize(Generators.edges(spark, spec))
    val stats = GraphStats.compute(edges, seed = cfg.seed)
    log(f"|V|=${stats.numV} |E|=${stats.numE} maxDeg=${stats.maxDeg} " +
        f"avgDist=${stats.avgDist}%.1f")

    // --- offline construction ------------------------------------------------------
    // Labelling is the part that differs between QbS-P (landmark BFSs spread over
    // tasks) and QbS (all in one task); the edge collect, landmark pick and assembly
    // are shared, so each variant's build time is those plus its own labelling.
    val (g, tCsr) = timed(Csr(GraphOps.edgesOf(edges)))
    val (landmarks, tLm) = timed(GraphOps.topDegreeLandmarks(g, cfg.numLandmarks))
    val (labP, tLabP) = timed(Labelling.run(spark, g, landmarks, parallel = true))
    val (qbsIndex, tAsm) = timed(QbS.assemble(spark, edges, labP))
    val (_, tLabSeq) = timed(Labelling.run(spark, g, landmarks, parallel = false))
    val tQbsP = tCsr + tLm + tLabP + tAsm
    val tQbsSeq = tCsr + tLm + tLabSeq + tAsm
    log(f"QbS-P build ${tQbsP}%.1fs (labelling ${tLabP}%.1fs; " +
        f"labels=${qbsIndex.labelEntries} Δ=${qbsIndex.deltaEntries})")
    log(f"QbS   build ${tQbsSeq}%.1fs (labelling ${tLabSeq}%.1fs)")

    val local = GraphOps.toLocal(edges)
    val (pplIdx, tPpl) = timed(
      Ppl.build(local, withParents = false, cfg.pplBudgetMillis, cfg.pplMaxEntries))
    log(f"PPL   build ${tPpl}%.1fs status=${pplIdx.status}")
    val (parentIdx, tParent) = timed(
      Ppl.build(local, withParents = true, cfg.pplBudgetMillis, cfg.pplMaxEntries))
    log(f"PRNT  build ${tParent}%.1fs status=${parentIdx.status}")

    // --- online queries ------------------------------------------------------------
    val rnd = new Random(cfg.seed + spec.seed)
    val nonLm = local.vertices.filterNot(qbsIndex.landmarks.contains)
    val pairs = Seq.fill(cfg.queriesPerGraph) {
      (nonLm(rnd.nextInt(nonLm.length)), nonLm(rnd.nextInt(nonLm.length)))
    }.filter(p => p._1 != p._2)

    /** Each method's answers to the pairs, after one untimed pass over them: without
      * it the JIT's start-up goes to whichever method runs first.
      */
    def warmRuns[A](query: (Long, Long) => A): Seq[A] = {
      pairs.foreach { case (u, v) => query(u, v) }
      pairs.map { case (u, v) => query(u, v) }
    }
    val qbsAnswers = warmRuns(QbS.query(qbsIndex, _, _))
    val coverage = Map("all" -> 0, "some" -> 0, "none" -> 0) ++
      qbsAnswers.groupBy(QbS.coverage).view.mapValues(_.size)
    val qbsRuns = qbsAnswers.map(a => (a.millis, a.edgesTraversed.toDouble))
    // Bi-BFS runs on the same driver-local substrate as QbS.query: the engine's G
    val bibfsRuns = warmRuns(BiBfs.spg(qbsIndex.engine.graph, _, _))
      .map(r => (r.millis, r.edgesTraversed.toDouble))
    def qstats(runs: Seq[(Double, Double)]): QueryStats =
      QueryStats(runs.size,
        if (runs.isEmpty) 0 else runs.map(_._1).sum / runs.size,
        if (runs.isEmpty) 0 else runs.map(_._2).sum / runs.size)

    def labelledQueries(idx: Ppl.Index, withParents: Boolean): Option[QueryStats] =
      Option.when(idx.status == Ppl.Ok)(qstats(
        warmRuns(Ppl.spgQuery(idx, _, _, withParents))
          .map(r => (r.millis, r.entriesFetched.toDouble))))

    val pplQ = labelledQueries(pplIdx, withParents = false)
    val parentQ = labelledQueries(parentIdx, withParents = true)
    log(f"query avg: QbS ${qstats(qbsRuns).avgMs}%.0fms  BiBFS ${qstats(bibfsRuns).avgMs}%.0fms")

    // release per-dataset caches
    Seq(edges, qbsIndex.edges).foreach(_.unpersist(blocking = false))

    Measurement(spec, stats, cfg.numLandmarks,
      tQbsP, tQbsSeq, pplIdx.status, tPpl, parentIdx.status, tParent,
      qbsIndex.labelEntries, qbsIndex.deltaEntries,
      pplIdx.entries, parentIdx.entries, parentIdx.parentRefs,
      qstats(qbsRuns), qstats(bibfsRuns), pplQ, parentQ, coverage)
  }

  /** All configured dataset analogs; REPRO_ONLY=DO,CW filters by abbreviation. */
  def measureAll(spark: SparkSession, cfg: Config): Seq[Measurement] = {
    val only = sys.env.get("REPRO_ONLY").filter(_.nonEmpty)
      .map(_.split(",").map(_.trim.toUpperCase).toSet)
    Generators.datasets(cfg.tier)
      .filter(s => only.forall(_.contains(s.abbrev)))
      .take(cfg.maxDatasets)
      .map(measure(spark, _, cfg))
  }

  // ------------------------------------------------------------ table rendering ----

  private def mb(bytes: Double): String =
    if (bytes >= 1024 * 1024 * 1024) f"${bytes / 1024 / 1024 / 1024}%.2fGB"
    else if (bytes >= 1024 * 1024) f"${bytes / 1024 / 1024}%.2fMB"
    else f"${bytes / 1024}%.1fKB"

  /** Paper size conventions (§6.1): QbS labels use |R|*8 bits per vertex; PPL entries
    * are 32-bit landmark + 8-bit distance; ParentPPL parents add 32 bits each;
    * Δ and graph edges are 8 bytes per edge.
    */
  def qbsLabelBytes(m: Measurement): Double = m.stats.numV.toDouble * m.numLandmarks
  def qbsDeltaBytes(m: Measurement): Double = m.qbsDeltaEntries.toDouble * 8
  def pplBytes(m: Measurement): Double = m.pplEntries.toDouble * 5
  def parentBytes(m: Measurement): Double =
    m.parentEntries.toDouble * 5 + m.parentRefs.toDouble * 4

  def statusStr(status: Ppl.Status, sec: Double): String = status match {
    case Ppl.Ok  => f"$sec%.1f"
    case Ppl.Dnf => "DNF"
    case Ppl.Ooe => "OOE"
  }

  def renderTable1(ms: Seq[Measurement]): String = {
    val header = f"${"Dataset"}%-14s ${"|V|"}%8s ${"|E|"}%9s ${"maxdeg"}%7s " +
      f"${"avgdeg"}%7s ${"avgdist"}%8s ${"|G|"}%9s"
    val rows = ms.map { m =>
      f"${m.spec.name}%-14s ${m.stats.numV}%8d ${m.stats.numE}%9d ${m.stats.maxDeg}%7d " +
      f"${m.stats.avgDeg}%7.2f ${m.stats.avgDist}%8.1f ${mb(m.stats.bytes.toDouble)}%9s"
    }
    (header +: rows).mkString("\n")
  }

  def renderTable2(ms: Seq[Measurement]): String = {
    val header = f"${"Dataset"}%-14s| ${"QbS-P(s)"}%9s ${"QbS(s)"}%8s ${"PPL(s)"}%8s " +
      f"${"PRNT(s)"}%8s | ${"QbS(ms)"}%9s ${"PPL(ms)"}%9s ${"PRNT(ms)"}%9s ${"BiBFS(ms)"}%10s" +
      " | QbS/BiBFS work"
    val rows = ms.map { m =>
      def q(o: Option[QueryStats]): String = o.map(s => f"${s.avgMs}%.1f").getOrElse("-")
      f"${m.spec.name}%-14s| ${m.qbsPBuildSec}%9.2f ${m.qbsBuildSec}%8.1f " +
      f"${statusStr(m.pplStatus, m.pplBuildSec)}%8s ${statusStr(m.parentStatus, m.parentBuildSec)}%8s | " +
      f"${m.qbs.avgMs}%9.1f ${q(m.ppl)}%9s ${q(m.parent)}%9s ${m.bibfs.avgMs}%10.1f | " +
      f"${m.qbs.avgEdgesTraversed}%.0f/${m.bibfs.avgEdgesTraversed}%.0f edges"
    }
    (header +: rows).mkString("\n")
  }

  def renderTable3(ms: Seq[Measurement]): String = {
    val header = f"${"Dataset"}%-14s ${"size(L)"}%10s ${"size(Δ)"}%10s " +
      f"${"PPL"}%10s ${"ParentPPL"}%10s"
    val rows = ms.map { m =>
      def sized(status: Ppl.Status, bytes: Double): String =
        if (status == Ppl.Ok) mb(bytes) else "-"
      f"${m.spec.name}%-14s ${mb(qbsLabelBytes(m))}%10s ${mb(qbsDeltaBytes(m))}%10s " +
      f"${sized(m.pplStatus, pplBytes(m))}%10s ${sized(m.parentStatus, parentBytes(m))}%10s"
    }
    (header +: rows).mkString("\n")
  }
}
