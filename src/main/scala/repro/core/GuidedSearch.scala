package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Traversal

/** Online phase 2 of QbS: Algorithm 4, sketch-guided search, on the DataFrame-join
  * substrate.
  *
  * `QbS.query` runs the same search ([[BiSearch.guided]]) on the driver-local arrays
  * of [[QueryEngine]]. This entry point keeps the index's cached DataFrames as the
  * substrate: `G⁻ = G[V \ R]` as symmetric edges (frontiers expand via broadcast
  * joins), the label relation and `Δ`. It answers exactly as `QbS.query` does, with
  * the same counters, at about one Spark job per level and fetch.
  */
object GuidedSearch {

  /** Result of one query of the search core, whichever instance and substrate ran it
    * (`QbS.Answer` and `BiBfs.Result` name it too): canonical SPG edges, the distance
    * (None if disconnected), how the answer decomposed (for the Fig.-8-style coverage
    * stats), and counters.
    */
  final case class Result(edges: Set[(Long, Long)], distance: Option[Int],
                          usedReverse: Boolean, usedRecover: Boolean,
                          levels: Int, edgesTraversed: Long, millis: Double)

  /** The DataFrame substrate: cached `G⁻` edges, labels `(v, lm, dist)` and `Δ`
    * `(r, rp, src, dst)`.
    */
  private final class LabelledFrames(gMinusSym: DataFrame, labelsDf: DataFrame,
                                     deltaDf: DataFrame)
      extends Traversal.Frames(gMinusSym) with BiSearch.Substrate {

    /** One batched fetch for several (landmark, candidate-set) requests: a single
      * Spark job however many terminals need anchor labels. A broadcast join keeps
      * the plan small even for thousands of candidates (an `isin` of that size would
      * blow up the Catalyst expression tree).
      */
    def labels(reqs: Seq[(Long, collection.Set[Long])]): Map[(Long, Long), Int] = {
      val pairs = reqs.flatMap { case (r, vs) => vs.iterator.map(v => (r, v)) }
      if (pairs.isEmpty) return Map.empty
      val spark = labelsDf.sparkSession
      import spark.implicits._
      val req = spark.createDataset(pairs).toDF("qlm", "qv")
      labelsDf.join(broadcast(req), col("lm") === col("qlm") && col("v") === col("qv"))
        .select("lm", "v", "dist").collect()
        .map(row => (row.getLong(0), row.getLong(1)) -> row.getInt(2)).toMap
    }

    def delta(metaEdges: Set[(Long, Long)]): Iterator[(Long, Long)] = {
      val cond = metaEdges.iterator.map { case (a, b) =>
        col("r") === math.min(a, b) && col("rp") === math.max(a, b)
      }.reduce(_ || _)
      deltaDf.filter(cond).select("src", "dst").collect()
        .iterator.map(row => (row.getLong(0), row.getLong(1)))
    }
  }

  def run(gMinusSym: DataFrame, labels: DataFrame, delta: DataFrame,
          sketch: Sketch.S): Result =
    BiSearch.guided(new LabelledFrames(gMinusSym, labels, delta), sketch)
}
