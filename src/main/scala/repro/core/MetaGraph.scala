package repro.core

/** Driver-side meta-graph `M = (R, E_R, σ)` (paper Def. 4.1) with precomputed
  * all-pairs shortest distances and, per landmark pair, the shortest-path-graph of
  * `M` — the §5.2 precomputation that makes sketching `O(|R|²)`.
  *
  * `|R|` is ≤ 100 throughout the paper, so Floyd–Warshall and the `|R|² × |E_R|`
  * SPG filter are trivially cheap on the driver.
  */
final class MetaGraph(val landmarks: Seq[Long], metaEdges: Seq[(Long, Long, Int)]) {

  private val idx: Map[Long, Int] = landmarks.zipWithIndex.toMap
  private val n = landmarks.size
  private val INF = Int.MaxValue / 4

  /** Canonical meta edges with weights. */
  val edges: Seq[(Long, Long, Int)] =
    metaEdges.map { case (a, b, w) => (math.min(a, b), math.max(a, b), w) }.distinct

  private val dist: Array[Array[Int]] = {
    val d = Array.fill(n, n)(INF)
    for (i <- 0 until n) d(i)(i) = 0
    for ((a, b, w) <- edges; i <- idx.get(a); j <- idx.get(b)) {
      d(i)(j) = math.min(d(i)(j), w); d(j)(i) = d(i)(j)
    }
    for (k <- 0 until n; i <- 0 until n if d(i)(k) < INF; j <- 0 until n)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  /** The number of landmarks; positions are `0 until size`, in `landmarks` order. */
  private[core] def size: Int = n

  /** The position of landmark `r`. */
  private[core] def position(r: Long): Option[Int] = idx.get(r)

  /** `d_M` between the landmarks at positions `i` and `j`; -1 if they are disconnected. */
  private[core] def distAt(i: Int, j: Int): Int = {
    val d = dist(i)(j)
    if (d < INF) d else -1
  }

  /** `d_M(r, r')`; None if `r`, `r'` are in different components of `M`. */
  def distance(r: Long, rp: Long): Option[Int] =
    for {
      i <- idx.get(r); j <- idx.get(rp)
      d = dist(i)(j) if d < INF
    } yield d

  /** Per landmark pair `(i, j)`, the canonical meta edges lying on at least one
    * shortest path between them in `M` (the "shortest path graph of `(r, r')` in `M`"
    * of Algorithm 3, line 10), precomputed so that a sketch only looks them up.
    */
  private val spg: Array[Array[Seq[(Long, Long)]]] = {
    val indexed = for ((a, b, w) <- edges; ia <- idx.get(a); ib <- idx.get(b))
      yield (a, b, w, ia, ib)
    Array.tabulate(n, n) { (i, j) =>
      val d = dist(i)(j)
      if (d >= INF) Nil
      else indexed.collect {
        case (a, b, w, ia, ib)
            if math.min(dist(i)(ia) + w + dist(ib)(j), dist(i)(ib) + w + dist(ia)(j)) == d =>
          (a, b)
      }.distinct
    }
  }

  /** [[spgEdges]] between the landmarks at positions `i` and `j`. */
  private[core] def spgAt(i: Int, j: Int): Seq[(Long, Long)] = spg(i)(j)

  /** Canonical meta edges lying on at least one shortest `r`–`r'` path in `M`. */
  def spgEdges(r: Long, rp: Long): Seq[(Long, Long)] =
    (for (i <- idx.get(r); j <- idx.get(rp)) yield spg(i)(j)).getOrElse(Nil)
}
