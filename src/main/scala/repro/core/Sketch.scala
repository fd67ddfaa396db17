package repro.core

/** Online phase 1 of QbS: Algorithm 3 — compute the sketch `S_uv` from the labels of
  * the two query vertices and the precomputed meta-graph. Driver-side and `O(|R|²)`.
  */
object Sketch {

  /** A sketch `S_uv` (paper Def. 4.5), kept in terminal/meta parts.
    *
    * @param dTop       `d⊤_uv` of Eq. (3); None if no landmark connects `u` and `v`
    * @param terminalsU `r -> σ_S(u, r) = δ_ur` for sketch edges `(u, r)`
    * @param terminalsV `r' -> σ_S(v, r') = δ_vr'` for sketch edges `(v, r')`
    * @param metaEdges  canonical meta-graph edges on the sketch's landmark paths
    */
  final case class S(u: Long, v: Long, dTop: Option[Int],
                     terminalsU: Map[Long, Int], terminalsV: Map[Long, Int],
                     metaEdges: Set[(Long, Long)]) {

    /** Eq. (4): suggested number of `G⁻` search steps from side `t`. */
    def dStarU: Int = dStar(terminalsU)
    def dStarV: Int = dStar(terminalsV)
    private def dStar(ts: Map[Long, Int]): Int =
      if (ts.isEmpty) 0 else ts.values.max - 1
  }

  /** Compute the sketch for `SPG(u, v)`.
    *
    * Pairs with `r = r'` are included (a path through a single landmark has
    * `d_M(r, r) = 0`); minimizing pairs contribute their terminal edges and the
    * `M`-shortest-path-graph edges between them.
    */
  def compute(meta: MetaGraph, u: Long, v: Long,
              labelsU: Map[Long, Int], labelsV: Map[Long, Int]): S = {
    var dTop = Int.MaxValue
    var mins = List.empty[(Long, Long)]
    for ((r, du) <- labelsU; (rp, dv) <- labelsV; dm <- meta.distance(r, rp)) {
      val d = du + dm + dv
      if (d < dTop) { dTop = d; mins = List((r, rp)) }
      else if (d == dTop) mins = (r, rp) :: mins
    }
    if (mins.isEmpty) S(u, v, None, Map.empty, Map.empty, Set.empty)
    else S(u, v, Some(dTop),
      mins.map { case (r, _) => r -> labelsU(r) }.toMap,
      mins.map { case (_, rp) => rp -> labelsV(rp) }.toMap,
      mins.flatMap { case (r, rp) => meta.spgEdges(r, rp) }.toSet)
  }
}
