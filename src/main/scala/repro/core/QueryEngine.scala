package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphOps, Traversal}
import scala.collection.mutable

/** The driver-local QbS query engine: the index collected into flat arrays, so that a
  * query runs no Spark job. Its layout follows the paper's Table-3 encoding and the
  * array-based query side of pruned landmark labelling (Akiba, Iwata and Yoshida,
  * SIGMOD 2013):
  *
  *  - `ids`: the sorted vertex ids of `G`; a vertex's position is its dense index,
  *    found by binary search;
  *  - `offsets`/`adj`: CSR adjacency of `G` over dense indices. `G⁻ = G[V \ R]` is the
  *    same arrays with landmarks skipped, so it needs no second adjacency;
  *  - `rank`: each vertex's position in `landmarks`, -1 for non-landmarks;
  *  - `label`: the `|V| × |R|` byte matrix (`|R|·8` bits per vertex), `δ_vr` at
  *    `v·|R| + rank(r)`, with 255 meaning "no label";
  *  - `deltaEdges`: `Δ` as one array of dense endpoint pairs per canonical meta-edge.
  *
  * Build it around a [[Labelling.Result]], whose matrix it takes as it is; from plain
  * label rows; or with [[QueryEngine.collect]] from an index's edges and labels. Each
  * way computes `Δ` from the label matrix and the meta-edges (`QueryEngine.deltaOf`).
  */
final class QueryEngine private (ids: Array[Long], offsets: Array[Int], adj: Array[Int],
                                 lms: Array[Long], rank: Array[Int], label: Array[Byte],
                                 deltaEdges: Map[(Long, Long), Array[Int]]) {

  val labelEntries: Long = label.count(_ != QueryEngine.NoLabel).toLong
  val deltaEntries: Long = deltaEdges.valuesIterator.map(_.length / 2L).sum

  private val numR = lms.length
  private val rankOf: Map[Long, Int] = lms.zipWithIndex.toMap

  /** Dense index of vertex `v`; negative if `v` is not a vertex of `G`. */
  private def indexOf(v: Long): Int = java.util.Arrays.binarySearch(ids, v)

  def contains(v: Long): Boolean = indexOf(v) >= 0

  def isLandmark(v: Long): Boolean = {
    val i = indexOf(v)
    i >= 0 && rank(i) >= 0
  }

  /** `L(v)` as `landmark -> δ_vr`; empty for landmarks and unknown ids. */
  def labelsOf(v: Long): Map[Long, Int] = {
    val i = indexOf(v)
    val out = Map.newBuilder[Long, Int]
    if (i >= 0)
      for (k <- 0 until numR) {
        val d = label(i * numR + k) & 0xff
        if (d != 255) out += lms(k) -> d
      }
    out.result()
  }

  private def expand(minus: Boolean, frontier: collection.Set[Long],
                     f: (Long, Long) => Unit): Unit =
    frontier.foreach { w =>
      val i = indexOf(w)
      if (i >= 0 && !(minus && rank(i) >= 0)) {
        var k = offsets(i)
        while (k < offsets(i + 1)) {
          val x = adj(k)
          if (!minus || rank(x) < 0) f(w, ids(x))
          k += 1
        }
      }
    }

  /** `G`, as Bi-BFS and landmark-endpoint queries search it. */
  val graph: Traversal.Graph = new Traversal.Graph {
    def expand(frontier: collection.Set[Long])(f: (Long, Long) => Unit): Unit =
      QueryEngine.this.expand(minus = false, frontier, f)
  }

  /** `G⁻` with the labels and `Δ`: the guided search's substrate. */
  val sparsified: BiSearch.Substrate = new BiSearch.Substrate {
    def expand(frontier: collection.Set[Long])(f: (Long, Long) => Unit): Unit =
      QueryEngine.this.expand(minus = true, frontier, f)

    def labels(reqs: Seq[(Long, collection.Set[Long])]): collection.Map[(Long, Long), Int] = {
      val out = mutable.HashMap.empty[(Long, Long), Int]
      for ((r, ws) <- reqs; k <- rankOf.get(r); w <- ws) {
        val i = indexOf(w)
        if (i >= 0) {
          val d = label(i * numR + k) & 0xff
          if (d != 255) out((r, w)) = d
        }
      }
      out
    }

    def delta(metaEdges: Set[(Long, Long)]): Iterator[(Long, Long)] =
      metaEdges.iterator.flatMap { case (a, b) =>
        val e = deltaEdges.getOrElse((math.min(a, b), math.max(a, b)), Array.emptyIntArray)
        Iterator.range(0, e.length, 2).map(j => (ids(e(j)), ids(e(j + 1))))
      }
  }

  /** `Δ` as a DataFrame `(r, rp, src, dst)`: a view over driver-side rows, no job. */
  private[core] def deltaDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    deltaEdges.toSeq.flatMap { case ((r, rp), e) =>
      Iterator.range(0, e.length, 2).map(j => (r, rp, ids(e(j)), ids(e(j + 1))))
    }.toDF("r", "rp", "src", "dst")
  }
}

object QueryEngine {

  /** The label byte of "no label" (255 unsigned). */
  private[core] val NoLabel: Byte = -1

  /** Label distance `d` of `(v, r)` as its byte; fails for a distance that does not fit. */
  private[core] def labelByte(v: Long, r: Long, d: Int): Byte = {
    require(d >= 0 && d < 255, s"label ($v, $r) has distance $d, which does not fit " +
      "the one-byte label encoding: distances must be below 255 (255 means no label)")
    d.toByte
  }

  /** A BFS depth as the labelling's Pregel state stores it: saturated at 255 (which
    * [[labelByte]] rejects), never wrapped.
    */
  private[core] def depthByte(d: Int): Byte = math.min(d, 255).toByte

  /** A `numV × numR` label matrix with no labels. */
  private[core] def emptyLabels(numV: Int, numR: Int): Array[Byte] = {
    require(numV.toLong * numR <= Int.MaxValue,
      s"$numV vertices × $numR landmarks exceed one label array")
    Array.fill[Byte](numV * numR)(NoLabel)
  }

  /** The `|ids| × |R|` label matrix of `(v, lm, dist)` rows. */
  private[core] def labelMatrix(ids: Array[Long], landmarks: Seq[Long],
                                rows: Iterable[(Long, Long, Int)]): Array[Byte] = {
    val numR = landmarks.size
    val rankOf = landmarks.zipWithIndex.toMap
    val label = emptyLabels(ids.length, numR)
    for ((v, r, d) <- rows) {
      val k = rankOf.getOrElse(r,
        throw new IllegalArgumentException(s"label ($v, $r): $r is not a landmark"))
      label(dense(ids, v, "label") * numR + k) = labelByte(v, r, d)
    }
    label
  }

  private def dense(ids: Array[Long], v: Long, what: String): Int = {
    val i = java.util.Arrays.binarySearch(ids, v)
    require(i >= 0, s"$what: $v is not a vertex of the graph")
    i
  }

  /** Sorted vertex ids, CSR offsets and adjacency over dense indices, and landmark
    * ranks of a canonical edge list.
    */
  private final case class Csr(ids: Array[Long], offsets: Array[Int], adj: Array[Int],
                               rank: Array[Int])

  private def csr(edges: Array[(Long, Long)], lms: Array[Long]): Csr = {
    val ids = {
      val all = new Array[Long](2 * edges.length)
      for (k <- edges.indices) { all(2 * k) = edges(k)._1; all(2 * k + 1) = edges(k)._2 }
      java.util.Arrays.sort(all)
      var n = 0
      for (x <- all) if (n == 0 || all(n - 1) != x) { all(n) = x; n += 1 }
      java.util.Arrays.copyOf(all, n)
    }
    val offsets = new Array[Int](ids.length + 1)
    val adj = new Array[Int](2 * edges.length)
    val a = edges.map(e => dense(ids, e._1, "edge"))
    val b = edges.map(e => dense(ids, e._2, "edge"))
    for (k <- edges.indices) { offsets(a(k) + 1) += 1; offsets(b(k) + 1) += 1 }
    for (i <- 1 to ids.length) offsets(i) += offsets(i - 1)
    val next = offsets.clone()
    for (k <- edges.indices) {
      adj(next(a(k))) = b(k); next(a(k)) += 1
      adj(next(b(k))) = a(k); next(b(k)) += 1
    }
    val rank = Array.fill(ids.length)(-1)
    for ((lm, k) <- lms.zipWithIndex) rank(dense(ids, lm, "landmark")) = k
    Csr(ids, offsets, adj, rank)
  }

  /** `Δ` from the label matrix: edge `(a, b)` lies on a landmark-free shortest `r`–`r'`
    * path of meta-edge `(r, r', σ)` iff `δ_L(a, r) + 1 + δ_L(b, r') = σ` in either
    * orientation, where `δ_L(x, s)` is 0 for `x = s`, the label distance if there is
    * one, and ∞ otherwise (so other landmarks are excluded). Scanning every `a` with
    * `δ_L(a, r) < σ` and all its neighbours `b` covers both orientations; no edge
    * satisfies both, since `δ_L(x, r) + δ_L(x, r') ≥ σ` for every `x`.
    */
  private def deltaOf(g: Csr, label: Array[Byte], lms: Array[Long],
                      metaEdges: Seq[(Long, Long, Int)]): Map[(Long, Long), Array[Int]] = {
    val numR = lms.length
    val rankOf = lms.zipWithIndex.toMap
    val inf = Int.MaxValue / 2
    def dist(x: Int, k: Int): Int =
      if (g.rank(x) >= 0) { if (g.rank(x) == k) 0 else inf }
      else {
        val d = label(x * numR + k) & 0xff
        if (d == 255) inf else d
      }
    metaEdges.map { case (r, rp, sigma) =>
      val (k, kp) = (rankOf(r), rankOf(rp))
      val out = Array.newBuilder[Int]
      for (a <- g.ids.indices) {
        val da = dist(a, k)
        if (da < sigma) {
          var j = g.offsets(a)
          while (j < g.offsets(a + 1)) {
            val b = g.adj(j)
            if (da + 1 + dist(b, kp) == sigma) { out += math.min(a, b); out += math.max(a, b) }
            j += 1
          }
        }
      }
      (math.min(r, rp), math.max(r, rp)) -> out.result()
    }.toMap
  }

  /** The engine over `g` with label matrix `label`, and `Δ` computed from it. */
  private def layout(g: Csr, lms: Array[Long], label: Array[Byte],
                     metaEdges: Seq[(Long, Long, Int)]): QueryEngine =
    new QueryEngine(g.ids, g.offsets, g.adj, lms, g.rank, label,
      deltaOf(g, label, lms, metaEdges))

  /** Lay out an engine from plain rows.
    *
    * @param edges     canonical edges `(src, dst)` of `G`
    * @param labels    path labelling rows `(v, lm, dist)`; distances must fit one byte
    * @param metaEdges meta-graph edges `(r, r', σ)`
    */
  def apply(landmarks: Seq[Long], edges: Array[(Long, Long)],
            labels: Array[(Long, Long, Int)],
            metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val lms = landmarks.toArray
    val g = csr(edges, lms)
    layout(g, lms, labelMatrix(g.ids, landmarks, labels), metaEdges)
  }

  /** Lay out an engine around a labelling, whose label matrix is taken as it is;
    * `edges` are the canonical edges of `G`.
    */
  def apply(lab: Labelling.Result, edges: Array[(Long, Long)]): QueryEngine = {
    val lms = lab.landmarks.toArray
    val g = csr(edges, lms)
    require(java.util.Arrays.equals(g.ids, lab.ids),
      "the labelling's vertices are not the vertices of the graph")
    layout(g, lms, lab.label, lab.metaEdges)
  }

  /** Collect an index's cached edges and its labels (one Spark job each). */
  def collect(landmarks: Seq[Long], edges: DataFrame, labels: DataFrame,
              metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val spark = edges.sparkSession
    import spark.implicits._
    QueryEngine(landmarks, GraphOps.edgesOf(edges),
      labels.select("v", "lm", "dist").as[(Long, Long, Int)].collect(), metaEdges)
  }
}
