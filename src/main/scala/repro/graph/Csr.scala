package repro.graph

/** Compressed sparse row (CSR) adjacency of an undirected graph over dense vertex
  * indices: `ids` are the sorted vertex ids, a vertex's index is its position there
  * (found by binary search), and the neighbours of index `i` are
  * `adj(offsets(i) until offsets(i + 1))`, every edge appearing in both endpoints' lists.
  *
  * `QbS.build` lays it out once from the collected edges; the landmark pick, the
  * labelling BFSs and the query engine all read it.
  */
final class Csr private (val ids: Array[Long], val offsets: Array[Int], val adj: Array[Int]) {

  def numV: Int = ids.length

  def degree(i: Int): Int = offsets(i + 1) - offsets(i)

  /** Dense index of vertex `v`; negative if `v` is not a vertex. */
  def indexOf(v: Long): Int = java.util.Arrays.binarySearch(ids, v)

  /** Dense index of vertex `v`, failing with `what` in the message if it is not one. */
  def dense(v: Long, what: String): Int = {
    val i = indexOf(v)
    require(i >= 0, s"$what: $v is not a vertex of the graph")
    i
  }

  /** Each vertex's position in `landmarks`, -1 for the others. */
  def ranks(landmarks: Seq[Long]): Array[Int] = {
    val rank = Array.fill(numV)(-1)
    for ((r, k) <- landmarks.zipWithIndex) rank(dense(r, "landmark")) = k
    rank
  }
}

object Csr {

  /** The CSR of a canonical edge list (each undirected edge once, no self-loops). */
  def apply(edges: Array[(Long, Long)]): Csr = {
    val ids = {
      val all = new Array[Long](2 * edges.length)
      for (k <- edges.indices) { all(2 * k) = edges(k)._1; all(2 * k + 1) = edges(k)._2 }
      java.util.Arrays.sort(all)
      var n = 0
      for (x <- all) if (n == 0 || all(n - 1) != x) { all(n) = x; n += 1 }
      java.util.Arrays.copyOf(all, n)
    }
    val a = edges.map(e => java.util.Arrays.binarySearch(ids, e._1))
    val b = edges.map(e => java.util.Arrays.binarySearch(ids, e._2))
    val offsets = new Array[Int](ids.length + 1)
    for (k <- edges.indices) { offsets(a(k) + 1) += 1; offsets(b(k) + 1) += 1 }
    for (i <- 1 to ids.length) offsets(i) += offsets(i - 1)
    val adj = new Array[Int](2 * edges.length)
    val next = offsets.clone()
    for (k <- edges.indices) {
      adj(next(a(k))) = b(k); next(a(k)) += 1
      adj(next(b(k))) = a(k); next(b(k)) += 1
    }
    new Csr(ids, offsets, adj)
  }
}
