package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.LongType
import repro.graph.{Csr, GraphOps}

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
  *  - `deltaAt`: `Δ` as one array of dense endpoint pairs per meta-edge, at
  *    `k·|R| + k'` and `k'·|R| + k` for the landmarks at positions `k` and `k'`
  *    (null for a pair that is not a meta-edge).
  *
  * Build it around a [[Labelling.Result]], whose CSR and matrix it takes as they are;
  * from plain label rows; or with [[QueryEngine.collect]] from an index's edges and
  * labels. Each way computes `Δ` from the label matrix and the meta-edges
  * (`QueryEngine.deltaOf`).
  */
final class QueryEngine private (g: Csr, landmarks: Seq[Long], rank: Array[Int],
                                 label: Array[Byte], deltaAt: Array[Array[Int]]) {

  private val ids = g.ids
  private val offsets = g.offsets
  private val adj = g.adj
  private val numR = landmarks.size
  /** The dense index of each landmark, by position. */
  private val lmIndex: Array[Int] = landmarks.map(g.indexOf).toArray
  /** An empty label row, for ids that are not vertices. */
  private val noLabels = Array.fill(numR)(QueryEngine.NoLabel)

  /** The meta-edges' `Δ` arrays, each once, with the landmark positions `k < k'`. */
  private def metaDeltas: Iterator[(Int, Int, Array[Int])] =
    for (k <- Iterator.range(0, numR); kp <- Iterator.range(k + 1, numR)
         if deltaAt(k * numR + kp) != null) yield (k, kp, deltaAt(k * numR + kp))

  val labelEntries: Long = label.count(_ != QueryEngine.NoLabel).toLong
  val deltaEntries: Long = metaDeltas.map(_._3.length / 2L).sum

  /** The search core's scratch, one per thread that queries this engine: 32 bytes per
    * vertex (`BiSearch.Scratch`), allocated on the thread's first query and reused, so
    * a query does no work that grows with `|V|`.
    */
  private val scratch = ThreadLocal.withInitial[BiSearch.Scratch](() => new BiSearch.Scratch(g.numV))

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
      for ((r, k) <- landmarks.zipWithIndex) {
        val d = label(i * numR + k) & 0xff
        if (d != 255) out += r -> d
      }
    out.result()
  }

  /** The sketch of `SPG(u, v)` (Algorithm 3), straight from the two label rows;
    * `meta` must order the landmarks as this engine does.
    */
  def sketch(meta: MetaGraph, u: Long, v: Long): Sketch.S = {
    require(meta.landmarks == landmarks, "the meta-graph orders the landmarks differently")
    val (iu, iv) = (indexOf(u), indexOf(v))
    Sketch.ofRows(meta, u, v, if (iu >= 0) label else noLabels, math.max(iu, 0) * numR,
      if (iv >= 0) label else noLabels, math.max(iv, 0) * numR)
  }

  /** The `Δ` array of the meta-edge between landmarks `r` and `r'`, or null. */
  private def deltaBetween(r: Long, rp: Long): Array[Int] = {
    val (i, j) = (indexOf(r), indexOf(rp))
    if (i < 0 || j < 0 || rank(i) < 0 || rank(j) < 0) null
    else deltaAt(rank(i) * numR + rank(j))
  }

  /** `G` (`minus = false`) or `G⁻` (`true`, landmarks skipped) over the CSR's dense
    * indices, with the label matrix and `Δ`.
    */
  private final class Arrays(minus: Boolean) extends BiSearch.Labelled {
    def handle(v: Long): Int = math.max(indexOf(v), -1)
    def id(h: Int): Long = ids(h)
    def size: Int = ids.length
    def scratch: BiSearch.Scratch = QueryEngine.this.scratch.get

    def expand(vs: Array[Int], from: Int, until: Int, out: BiSearch.Ints): Unit = {
      var i = from
      while (i < until) {
        val w = vs(i)
        if (!(minus && rank(w) >= 0)) {
          var k = offsets(w)
          val end = offsets(w + 1)
          while (k < end) {
            val x = adj(k)
            if (!minus || rank(x) < 0) { out += w; out += x }
            k += 1
          }
        }
        i += 1
      }
    }

    def landmarks: Seq[Long] = QueryEngine.this.landmarks
    def landmark(k: Int): Int = lmIndex(k)

    def label(w: Int, k: Int): Int = {
      val d = QueryEngine.this.label(w * numR + k) & 0xff
      if (d == 255) -1 else d
    }

    def remote: Boolean = false
    def prefetch(reqs: BiSearch.Ints): Unit = ()

    def delta(sketch: Sketch.S, out: EdgeSet.Builder): Unit =
      sketch.metaEdgeIterator.foreach { case (r, rp) =>
        val e = deltaBetween(r, rp)
        var j = 0
        while (e != null && j < e.length) { out.add(ids(e(j)), ids(e(j + 1))); j += 2 }
      }
  }

  /** The canonical `Δ` edges of meta-edge `(r, r')` (either orientation); none if it
    * is not a meta-edge.
    */
  def delta(r: Long, rp: Long): Iterator[(Long, Long)] = {
    val e = Option(deltaBetween(r, rp)).getOrElse(Array.emptyIntArray)
    Iterator.range(0, e.length, 2).map(j => (ids(e(j)), ids(e(j + 1))))
  }

  /** `G`, as Bi-BFS and landmark-endpoint queries search it. */
  val graph: BiSearch.Graph = new Arrays(minus = false)

  /** `G⁻` with the labels and `Δ`: the guided search's substrate. */
  val sparsified: BiSearch.Labelled = new Arrays(minus = true)

  /** `Δ` as a DataFrame `(r, rp, src, dst)`: a view over driver-side rows, no job. */
  private[core] def deltaDf(spark: SparkSession): DataFrame = {
    val (ids, lms) = (this.ids, landmarks.toArray)
    val deltas = metaDeltas.toVector
    GraphOps.view(spark, Seq("r", "rp", "src", "dst").map(_ -> LongType): _*) { () =>
      deltas.iterator.flatMap { case (k, kp, e) =>
        val (r, rp) = (math.min(lms(k), lms(kp)), math.max(lms(k), lms(kp)))
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
                      metaEdges: Seq[(Long, Long, Int)]): Array[Array[Int]] = {
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
    val deltaAt = new Array[Array[Int]](numR * numR)
    for ((r, rp, sigma) <- metaEdges) {
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
      deltaAt(k * numR + kp) = java.util.Arrays.copyOf(buf, n)
      deltaAt(kp * numR + k) = deltaAt(k * numR + kp)
    }
    deltaAt
  }

  /** The engine over `g` with label matrix `label`, and `Δ` computed from it. */
  private def layout(g: Csr, landmarks: Seq[Long], label: Array[Byte],
                     metaEdges: Seq[(Long, Long, Int)]): QueryEngine = {
    val rank = g.ranks(landmarks)
    new QueryEngine(g, landmarks, rank, label, deltaOf(g, rank, label, landmarks.toArray, metaEdges))
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
