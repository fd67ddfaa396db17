package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.LongType
import repro.graph.{Csr, GraphOps, Traversal}
import scala.collection.mutable

/** The driver-local QbS query engine: the index collected into flat arrays, so that a
  * query runs no Spark job. Its layout follows the paper's Table-3 encoding and the
  * array-based query side of pruned landmark labelling (Akiba, Iwata and Yoshida,
  * SIGMOD 2013):
  *
  *  - `g`: the [[Csr]] of `G` (sorted vertex ids, whose positions are the dense
  *    indices, and adjacency over them). `G⁻ = G[V \ R]` is the same arrays with
  *    landmarks skipped, so it needs no second adjacency;
  *  - `rank`: each vertex's position in `landmarks`, -1 for non-landmarks;
  *  - `label`: the `|V| × |R|` byte matrix (`|R|·8` bits per vertex), `δ_vr` at
  *    `v·|R| + rank(r)`, with 255 meaning "no label";
  *  - `deltaEdges`: `Δ` as one array of dense endpoint pairs per canonical meta-edge.
  *
  * Build it around a [[Labelling.Result]], whose CSR and matrix it takes as they are;
  * from plain label rows; or with [[QueryEngine.collect]] from an index's edges and
  * labels. Each way computes `Δ` from the label matrix and the meta-edges
  * (`QueryEngine.deltaOf`).
  */
final class QueryEngine private (g: Csr, lms: Array[Long], rank: Array[Int], label: Array[Byte],
                                 deltaEdges: Map[(Long, Long), Array[Int]]) {

  val labelEntries: Long = label.count(_ != QueryEngine.NoLabel).toLong
  val deltaEntries: Long = deltaEdges.valuesIterator.map(_.length / 2L).sum

  private val ids = g.ids
  private val offsets = g.offsets
  private val adj = g.adj
  private val numR = lms.length
  private val rankOf: Map[Long, Int] = lms.zipWithIndex.toMap

  private def indexOf(v: Long): Int = g.indexOf(v)

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
    val (ids, deltaEdges) = (this.ids, this.deltaEdges)
    GraphOps.view(spark, Seq("r", "rp", "src", "dst").map(_ -> LongType): _*) { () =>
      deltaEdges.iterator.flatMap { case ((r, rp), e) =>
        Iterator.range(0, e.length, 2).map(j => Row(r, rp, ids(e(j)), ids(e(j + 1))))
      }
    }
  }

  /** The symmetric edges `(src, dst)` of `G⁻` as a DataFrame: a view over the CSR, no
    * job.
    */
  private[core] def gMinusDf(spark: SparkSession): DataFrame = {
    val (ids, offsets, adj, rank) = (this.ids, this.offsets, this.adj, this.rank)
    GraphOps.view(spark, "src" -> LongType, "dst" -> LongType) { () =>
      for {
        i <- ids.indices.iterator if rank(i) < 0
        j <- Iterator.range(offsets(i), offsets(i + 1)) if rank(adj(j)) < 0
      } yield Row(ids(i), ids(adj(j)))
    }
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

  /** A `numV × numR` label matrix with no labels. */
  private[core] def emptyLabels(numV: Int, numR: Int): Array[Byte] = {
    require(numV.toLong * numR <= Int.MaxValue,
      s"$numV vertices × $numR landmarks exceed one label array")
    Array.fill[Byte](numV * numR)(NoLabel)
  }

  /** The `|V| × |R|` label matrix of `(v, lm, dist)` rows. */
  private def labelMatrix(g: Csr, landmarks: Seq[Long],
                          rows: Iterable[(Long, Long, Int)]): Array[Byte] = {
    val numR = landmarks.size
    val rankOf = landmarks.zipWithIndex.toMap
    val label = emptyLabels(g.numV, numR)
    for ((v, r, d) <- rows) {
      val k = rankOf.getOrElse(r,
        throw new IllegalArgumentException(s"label ($v, $r): $r is not a landmark"))
      label(g.dense(v, "label") * numR + k) = labelByte(v, r, d)
    }
    label
  }

  /** `Δ` from the label matrix: edge `(a, b)` lies on a landmark-free shortest `r`–`r'`
    * path of meta-edge `(r, r', σ)` iff `δ_L(a, r) + 1 + δ_L(b, r') = σ` in either
    * orientation, where `δ_L(x, s)` is 0 for `x = s`, the label distance if there is
    * one, and ∞ otherwise (so other landmarks are excluded). Scanning every `a` with
    * `δ_L(a, r) < σ` and all its neighbours `b` covers both orientations; no edge
    * satisfies both, since `δ_L(x, r) + δ_L(x, r') ≥ σ` for every `x`.
    */
  private def deltaOf(g: Csr, rank: Array[Int], label: Array[Byte], lms: Array[Long],
                      metaEdges: Seq[(Long, Long, Int)]): Map[(Long, Long), Array[Int]] = {
    val numR = lms.length
    val rankOf = lms.zipWithIndex.toMap
    val inf = Int.MaxValue / 2
    def dist(x: Int, k: Int): Int =
      if (rank(x) >= 0) { if (rank(x) == k) 0 else inf }
      else {
        val d = label(x * numR + k) & 0xff
        if (d == 255) inf else d
      }
    val buf = new Array[Int](g.adj.length) // one meta-edge's Δ has at most |E| edges
    metaEdges.map { case (r, rp, sigma) =>
      val (k, kp) = (rankOf(r), rankOf(rp))
      var n = 0
      var a = 0
      while (a < g.numV) {
        val da = dist(a, k)
        if (da < sigma) {
          var j = g.offsets(a)
          while (j < g.offsets(a + 1)) {
            val b = g.adj(j)
            if (da + 1 + dist(b, kp) == sigma) {
              buf(n) = math.min(a, b); buf(n + 1) = math.max(a, b); n += 2
            }
            j += 1
          }
        }
        a += 1
      }
      (math.min(r, rp), math.max(r, rp)) -> java.util.Arrays.copyOf(buf, n)
    }.toMap
  }

  /** The engine over `g` with label matrix `label`, and `Δ` computed from it. */
  private def layout(g: Csr, landmarks: Seq[Long], label: Array[Byte],
                     metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val (lms, rank) = (landmarks.toArray, g.ranks(landmarks))
    new QueryEngine(g, lms, rank, label, deltaOf(g, rank, label, lms, metaEdges))
  }

  /** Lay out an engine from plain rows.
    *
    * @param edges     canonical edges `(src, dst)` of `G`
    * @param labels    path labelling rows `(v, lm, dist)`; distances must fit one byte
    * @param metaEdges meta-graph edges `(r, r', σ)`
    */
  def apply(landmarks: Seq[Long], edges: Array[(Long, Long)],
            labels: Array[(Long, Long, Int)],
            metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val g = Csr(edges)
    layout(g, landmarks, labelMatrix(g, landmarks, labels), metaEdges)
  }

  /** Lay out an engine around a labelling: its CSR and label matrix as they are. */
  def apply(lab: Labelling.Result): QueryEngine =
    layout(lab.graph, lab.landmarks, lab.label, lab.metaEdges)

  /** Collect an index's cached edges and its labels (one Spark job each). */
  def collect(landmarks: Seq[Long], edges: DataFrame, labels: DataFrame,
              metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val spark = edges.sparkSession
    import spark.implicits._
    QueryEngine(landmarks, GraphOps.edgesOf(edges),
      labels.select("v", "lm", "dist").as[(Long, Long, Int)].collect(), metaEdges)
  }
}
