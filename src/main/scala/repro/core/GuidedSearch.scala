package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Traversal
import scala.collection.mutable

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

  /** The DataFrame substrate of the search core for one search: cached symmetric edges
    * `(src, dst)`, one broadcast join per level. It interns the vertex ids the search
    * meets into dense handles, in the order it meets them, so its scratch grows with
    * the vertices visited.
    */
  class Frames(symEdges: DataFrame) extends BiSearch.Graph {
    private val ids = mutable.ArrayBuffer.empty[Long]
    private val handles = mutable.HashMap.empty[Long, Int]

    /** Every id has a handle: whether it is a vertex shows only when a join finds it. */
    def handle(v: Long): Int = handles.getOrElseUpdate(v, { ids += v; ids.size - 1 })
    def id(h: Int): Long = ids(h)
    def size: Int = ids.size
    val scratch: BiSearch.Scratch = new BiSearch.Scratch(0)

    def expand(vs: Array[Int], from: Int, until: Int, out: BiSearch.Ints): Unit =
      for ((w, x) <- Traversal.neighborEdges(symEdges, (from until until).map(i => ids(vs(i))))) {
        out += handle(w); out += handle(x)
      }
  }

  /** The DataFrame substrate of the guided search: cached `G⁻` edges, labels
    * `(v, lm, dist)` and `Δ` `(r, rp, src, dst)`, with landmark positions as in
    * `landmarks`.
    */
  private final class LabelledFrames(gMinusSym: DataFrame, labelsDf: DataFrame,
                                     deltaDf: DataFrame, val landmarks: Seq[Long])
      extends Frames(gMinusSym) with BiSearch.Labelled {

    private val lms = landmarks.toArray
    private val position = landmarks.zipWithIndex.toMap
    /** Fetched labels by `(k, handle)`. */
    private val fetched = mutable.HashMap.empty[(Int, Int), Int]

    def landmark(k: Int): Int = handle(lms(k))
    def label(w: Int, k: Int): Int = fetched.getOrElse((k, w), -1)
    def remote: Boolean = true

    /** One batched fetch for all requested pairs: a single Spark job however many
      * terminals need anchor labels, none for no pair. A broadcast join keeps the plan
      * small even for thousands of candidates (an `isin` of that size would blow up
      * the Catalyst expression tree).
      */
    def prefetch(reqs: BiSearch.Ints): Unit = if (reqs.n > 0) {
      val pairs = (0 until reqs.n by 2).map(i => (lms(reqs.a(i)), id(reqs.a(i + 1))))
      val spark = labelsDf.sparkSession
      import spark.implicits._
      val req = spark.createDataset(pairs).toDF("qlm", "qv")
      labelsDf.join(broadcast(req), col("lm") === col("qlm") && col("v") === col("qv"))
        .select("lm", "v", "dist").collect()
        .foreach(row => fetched((position(row.getLong(0)), handle(row.getLong(1)))) = row.getInt(2))
    }

    def delta(sketch: Sketch.S, out: EdgeSet.Builder): Unit = {
      val metaEdges = sketch.metaEdges
      if (metaEdges.nonEmpty) {
        val cond = metaEdges.iterator.map { case (a, b) =>
          col("r") === math.min(a, b) && col("rp") === math.max(a, b)
        }.reduce(_ || _)
        deltaDf.filter(cond).select("src", "dst").collect()
          .foreach(row => out.add(row.getLong(0), row.getLong(1)))
      }
    }
  }

  def run(gMinusSym: DataFrame, labels: DataFrame, delta: DataFrame,
          sketch: Sketch.S): Result =
    BiSearch.guided(new LabelledFrames(gMinusSym, labels, delta, sketch.landmarks), sketch)
}
