package repro.core

/** Online phase 1 of QbS: Algorithm 3 — compute the sketch `S_uv` from the labels of
  * the two query vertices and the precomputed meta-graph. Driver-side and `O(|R|²)`.
  *
  * The sketch is computed over landmark positions (the order of `meta.landmarks`):
  * from two label rows of the `|V| × |R|` byte matrix (255 = no label) and the
  * meta-graph's position-indexed APSP and SPG arrays. [[compute]] adapts `Map` labels
  * to that form.
  */
object Sketch {

  /** A sketch `S_uv` (paper Def. 4.5), kept in terminal/meta parts by landmark position.
    *
    * @param dTop  `d⊤_uv` of Eq. (3); None if no landmark connects `u` and `v`
    * @param termU `σ_S(u, r) = δ_ur` at `r`'s position for sketch edges `(u, r)`, else -1
    * @param termV `σ_S(v, r') = δ_vr'` at `r'`'s position for sketch edges `(v, r')`,
    *              else -1
    * @param mins  the minimizing landmark-position pairs `(k, k')`, as `k·|R| + k'`
    */
  final class S private[core] (val u: Long, val v: Long, val dTop: Option[Int], meta: MetaGraph,
                               private[core] val termU: Array[Int],
                               private[core] val termV: Array[Int], mins: Array[Int]) {

    private[core] def landmarks: Seq[Long] = meta.landmarks

    /** `r -> σ_S(u, r)` for sketch edges `(u, r)`. */
    def terminalsU: Map[Long, Int] = terminals(termU)

    /** `r' -> σ_S(v, r')` for sketch edges `(v, r')`. */
    def terminalsV: Map[Long, Int] = terminals(termV)

    private def terminals(term: Array[Int]): Map[Long, Int] =
      term.indices.collect { case k if term(k) >= 0 => meta.landmarks(k) -> term(k) }.toMap

    /** Canonical meta-graph edges on the sketch's landmark paths, repeated where the
      * paths share them.
      */
    private[core] def metaEdgeIterator: Iterator[(Long, Long)] =
      mins.iterator.flatMap(m => meta.spgAt(m / meta.size, m % meta.size))

    /** Canonical meta-graph edges on the sketch's landmark paths. */
    def metaEdges: Set[(Long, Long)] = metaEdgeIterator.toSet

    /** Eq. (4): suggested number of `G⁻` search steps from side `t`. */
    val dStarU: Int = dStar(termU)
    val dStarV: Int = dStar(termV)
    private def dStar(term: Array[Int]): Int = term.foldLeft(0)((m, sig) => math.max(m, sig - 1))
  }

  /** Algorithm 3 over positions: `L(u)` is `rowU(offU + k)` for the landmark at position
    * `k` (255 = no label), `L(v)` likewise. Pairs with `r = r'` are included (a path
    * through a single landmark has `d_M(r, r) = 0`); minimizing pairs contribute their
    * terminal edges and the `M`-shortest-path-graph edges between them.
    */
  private[core] def ofRows(meta: MetaGraph, u: Long, v: Long, rowU: Array[Byte], offU: Int,
                           rowV: Array[Byte], offV: Int): S = {
    val n = meta.size
    var dTop = Int.MaxValue
    var mins = new Array[Int](4)
    var numMins = 0
    var k = 0
    while (k < n) {
      val du = rowU(offU + k) & 0xff
      if (du != 255) {
        var kp = 0
        while (kp < n) {
          val dv = rowV(offV + kp) & 0xff
          val dm = if (dv != 255) meta.distAt(k, kp) else -1
          if (dm >= 0) {
            val d = du + dm + dv
            if (d <= dTop) {
              if (d < dTop) { dTop = d; numMins = 0 }
              if (numMins == mins.length) mins = java.util.Arrays.copyOf(mins, 2 * numMins)
              mins(numMins) = k * n + kp
              numMins += 1
            }
          }
          kp += 1
        }
      }
      k += 1
    }
    val termU = new Array[Int](n)
    val termV = new Array[Int](n)
    java.util.Arrays.fill(termU, -1)
    java.util.Arrays.fill(termV, -1)
    var i = 0
    while (i < numMins) {
      val k = mins(i) / n; val kp = mins(i) % n
      termU(k) = rowU(offU + k) & 0xff
      termV(kp) = rowV(offV + kp) & 0xff
      i += 1
    }
    new S(u, v, if (numMins > 0) Some(dTop) else None, meta, termU, termV,
      java.util.Arrays.copyOf(mins, numMins))
  }

  /** Compute the sketch for `SPG(u, v)` from `landmark -> δ` labels; labels for ids
    * that are not landmarks of `meta` are ignored.
    */
  def compute(meta: MetaGraph, u: Long, v: Long,
              labelsU: Map[Long, Int], labelsV: Map[Long, Int]): S = {
    def row(x: Long, labels: Map[Long, Int]): Array[Byte] = {
      val r = Array.fill(meta.size)(QueryEngine.NoLabel)
      for ((lm, d) <- labels; k <- meta.position(lm)) r(k) = QueryEngine.labelByte(x, lm, d)
      r
    }
    ofRows(meta, u, v, row(u, labelsU), 0, row(v, labelsV), 0)
  }
}
