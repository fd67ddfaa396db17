package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Traversal
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
  * Build it with [[QueryEngine.apply]] from plain rows, or [[QueryEngine.collect]]
  * from an index's DataFrames.
  */
final class QueryEngine private (ids: Array[Long], offsets: Array[Int], adj: Array[Int],
                                 lms: Array[Long], rank: Array[Int], label: Array[Byte],
                                 deltaEdges: Map[(Long, Long), Array[Int]],
                                 val labelEntries: Long, val deltaEntries: Long) {

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
    if (i < 0) Map.empty
    else (0 until numR).iterator.flatMap { k =>
      val d = label(i * numR + k) & 0xff
      if (d == 255) None else Some(lms(k) -> d)
    }.toMap
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
}

object QueryEngine {

  /** The label byte of "no label" (255 unsigned). */
  private val NoLabel: Byte = -1

  /** Lay out an engine. `labelEntries` and `deltaEntries` count the given rows.
    *
    * @param edges  canonical edges `(src, dst)` of `G`
    * @param labels path labelling rows `(v, lm, dist)`; distances must fit one byte
    * @param delta  `Δ` rows `(r, rp, src, dst)` with `r < rp`
    */
  def apply(landmarks: Seq[Long], edges: Array[(Long, Long)],
            labels: Array[(Long, Long, Int)],
            delta: Array[(Long, Long, Long, Long)]): QueryEngine = {
    val ids = {
      val all = new Array[Long](2 * edges.length)
      for (k <- edges.indices) { all(2 * k) = edges(k)._1; all(2 * k + 1) = edges(k)._2 }
      java.util.Arrays.sort(all)
      var n = 0
      for (x <- all) if (n == 0 || all(n - 1) != x) { all(n) = x; n += 1 }
      java.util.Arrays.copyOf(all, n)
    }
    def dense(v: Long, what: String): Int = {
      val i = java.util.Arrays.binarySearch(ids, v)
      require(i >= 0, s"$what: $v is not a vertex of the graph")
      i
    }

    val offsets = new Array[Int](ids.length + 1)
    val adj = new Array[Int](2 * edges.length)
    val a = edges.map(e => dense(e._1, "edge"))
    val b = edges.map(e => dense(e._2, "edge"))
    for (k <- edges.indices) { offsets(a(k) + 1) += 1; offsets(b(k) + 1) += 1 }
    for (i <- 1 to ids.length) offsets(i) += offsets(i - 1)
    val next = offsets.clone()
    for (k <- edges.indices) {
      adj(next(a(k))) = b(k); next(a(k)) += 1
      adj(next(b(k))) = a(k); next(b(k)) += 1
    }

    val lms = landmarks.toArray
    val numR = lms.length
    val rankOf = lms.zipWithIndex.toMap
    val rank = Array.fill(ids.length)(-1)
    for ((lm, k) <- lms.zipWithIndex) rank(dense(lm, "landmark")) = k

    require(ids.length.toLong * numR <= Int.MaxValue,
      s"${ids.length} vertices × $numR landmarks exceed one label array")
    val label = Array.fill[Byte](ids.length * numR)(NoLabel)
    for ((v, r, d) <- labels) {
      require(d >= 0 && d < 255, s"label ($v, $r) has distance $d, which does not fit " +
        "the one-byte label encoding: distances must be below 255 (255 means no label)")
      val k = rankOf.getOrElse(r,
        throw new IllegalArgumentException(s"label ($v, $r): $r is not a landmark"))
      label(dense(v, "label") * numR + k) = d.toByte
    }

    val deltaEdges = delta.groupBy(t => (t._1, t._2)).map { case (key, rows) =>
      key -> rows.flatMap(t => Array(dense(t._3, "Δ edge"), dense(t._4, "Δ edge")))
    }

    new QueryEngine(ids, offsets, adj, lms, rank, label, deltaEdges,
      labels.length.toLong, delta.length.toLong)
  }

  /** Collect an index's cached edges, labels and `Δ` (one Spark job each). */
  def collect(landmarks: Seq[Long], edges: DataFrame, labels: DataFrame,
              delta: DataFrame): QueryEngine = {
    val spark = edges.sparkSession
    import spark.implicits._
    QueryEngine(landmarks,
      edges.select("src", "dst").as[(Long, Long)].collect(),
      labels.select("v", "lm", "dist").as[(Long, Long, Int)].collect(),
      delta.select("r", "rp", "src", "dst").as[(Long, Long, Long, Long)].collect())
  }
}
