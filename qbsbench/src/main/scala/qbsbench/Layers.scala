package qbsbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines.{BiBfs, GroundTruth}
import repro.core.{GuidedSearch, Labelling, MetaGraph, QbS, Sketch}
import repro.graph.GraphOps

/** Outside-in spans over the program's layers: the same public calls that
  * `QbS.build`/`QbS.assemble` and `QbS.query` compose, each timed and each with its
  * Spark jobs attributed to its own tag by a [[Probe]].
  *
  * A span's tag is `<op>/<layer>`, where `<op>` names one build or query of the run.
  */
final class Layers(spark: SparkSession, probe: Probe) {
  import Layers._

  private def span[A](op: String, layer: String, spans: collection.mutable.Map[String, Double])
                     (f: => A): A = {
    val (a, ms) = Main.timedMs(probe.tagged(s"$op/$layer")(f))
    spans(layer) = ms
    a
  }

  /** `QbS.build` split at its public calls. */
  def build(op: String, edges: DataFrame, numLandmarks: Int): Build = {
    val spans = collection.mutable.LinkedHashMap.empty[String, Double]
    val gc0 = Host.gcMillis()
    val t0 = System.nanoTime()
    val landmarks = span(op, "build.landmarks", spans)(
      GraphOps.topDegreeLandmarks(edges, numLandmarks))
    val lab = span(op, "build.labelling", spans)(
      Labelling.run(spark, edges, landmarks, parallel = true))
    val meta = span(op, "build.meta", spans)(new MetaGraph(landmarks, lab.metaEdges))
    val delta = span(op, "build.delta", spans)(
      GraphOps.materialize(Labelling.delta(spark, edges, lab)))
    val gMinusSym = span(op, "build.sparsify", spans)(
      GraphOps.materialize(GraphOps.symmetric(GraphOps.sparsify(edges, landmarks))))
    // the rest of `assemble`: the cached input and the two entry counts
    val (cached, labelEntries, deltaEntries) = probe.tagged(s"$op/build.assemble")(
      (GraphOps.materialize(edges), lab.labels.count(), delta.count()))
    val index = QbS.Index(landmarks, lab.labels, meta, delta, gMinusSym, cached,
      labelEntries, deltaEntries, buildMillis = (System.nanoTime() - t0) / 1e6)
    Build(op, index, spans.toMap, index.buildMillis, Host.gcMillis() - gc0)
  }

  /** `QbS.query` split into label fetch, `Sketch.compute` and `GuidedSearch.run`. */
  def query(op: String, index: QbS.Index, u: Long, v: Long): Query = {
    val spans = collection.mutable.LinkedHashMap.empty[String, Double]
    val t0 = System.nanoTime()
    if (u == v || index.landmarks.contains(u) || index.landmarks.contains(v)) {
      // Def. 4.2 labels only V \ R; QbS.query answers these pairs with the
      // ground-truth double BFS, so the trace does the same under its own span
      val gt = span(op, "qbs.fallback", spans)(
        if (u == v) GroundTruth.Result(Set.empty, Some(0)) else GroundTruth.spg(index.edges, u, v))
      return Query(Main.Answer(gt.edges, gt.distance), None, None, spans.toMap,
        (System.nanoTime() - t0) / 1e6)
    }
    val lab = span(op, "qbs.label_fetch", spans)(
      index.labels.filter(col("v").isin(u, v)).select("v", "lm", "dist").collect())
    val labelsU = lab.filter(_.getLong(0) == u).map(r => r.getLong(1) -> r.getInt(2)).toMap
    val labelsV = lab.filter(_.getLong(0) == v).map(r => r.getLong(1) -> r.getInt(2)).toMap
    val sketch = span(op, "sketch.compute", spans)(
      Sketch.compute(index.meta, u, v, labelsU, labelsV))
    val res = span(op, "guided.run", spans)(
      GuidedSearch.run(index.gMinusSym, index.labels, index.delta, sketch))
    Query(Main.Answer(res.edges, res.distance), Some(sketch), Some(res), spans.toMap,
      (System.nanoTime() - t0) / 1e6)
  }

  /** `BiBfs.spg` as one span. */
  def bibfs(op: String, gSym: DataFrame, u: Long, v: Long): (BiBfs.Result, Double) =
    Main.timedMs(probe.tagged(s"$op/bibfs.spg")(BiBfs.spg(gSym, u, v)))
}

object Layers {
  final case class Build(op: String, index: QbS.Index, spans: Map[String, Double], millis: Double,
                         gcMs: Long)
  final case class Query(answer: Main.Answer, sketch: Option[Sketch.S],
                         guided: Option[GuidedSearch.Result], spans: Map[String, Double],
                         millis: Double)
}
