package repro.core

import repro.graph.Traversal
import scala.collection.mutable

/** The bidirectional search core shared by QbS's guided search (Algorithm 4) and the
  * Bi-BFS baseline, over any substrate: the driver-local arrays of [[QueryEngine]] or
  * the DataFrame joins behind [[GuidedSearch.run]] and `BiBfs.spg(DataFrame, …)`.
  *
  *  1. Stage 1, a bidirectional BFS. A policy picks the side to expand: Eq. (4)
  *     sketch bounds, then a live frontier, then the smaller visited set for QbS; the
  *     smaller visited set for Bi-BFS. It stops when the sides meet, when `d_u + d_v`
  *     reaches the bound (`d⊤` for QbS, none for Bi-BFS), or when the policy finds no
  *     side to expand. There is no level cap: Eq. (5) is exact only if `d_{G⁻}` is
  *     searched to completion.
  *  2. Reverse search from the meeting set (shortest paths inside the searched graph).
  *  3. Recover search, QbS only: label-decreasing paths from anchors to the sketch's
  *     landmarks, plus the `Δ` edges of its meta-edges (paths through landmarks).
  *  4. Walk-back: the reverse walks of stages 2 and 3 run in lockstep, one expansion
  *     per level for their union.
  *
  * The core counts the work, so every substrate counts alike: one level per expansion
  * of a non-empty frontier and one edge per pair it yields. Label and `Δ` fetches are
  * not counted.
  */
object BiSearch {

  /** What the guided search needs besides expansion on `G⁻`: labels and `Δ`. */
  trait Substrate extends Traversal.Graph {

    /** `(r, w) -> δ_wr` for each requested `w` (per landmark `r`) labelled for `r`. */
    def labels(reqs: Seq[(Long, collection.Set[Long])]): collection.Map[(Long, Long), Int]

    /** The canonical `Δ` edges of the given non-empty set of canonical meta-edges. */
    def delta(metaEdges: Set[(Long, Long)]): Iterator[(Long, Long)]
  }

  /** Work counters of one search. */
  final class Counters {
    var levels: Int = 0
    var edgesTraversed: Long = 0L
  }

  /** A reverse walk: a vertex set at `level` of the BFS whose depths `depth` holds. */
  type Walk = (collection.Set[Long], Int, collection.Map[Long, Int])

  /** One side of stage 1: BFS depths from its root, its frontier and its depth. */
  private final class Side(root: Long) {
    val depth = mutable.HashMap[Long, Int](root -> 0)
    var frontier: collection.Set[Long] = Set(root)
    var d = 0
  }

  /** Picks the side to expand next, or None to stop. */
  private type Policy = (Side, Side) => Option[Side]

  private val visitedSize: Policy = (su, sv) =>
    if (su.frontier.isEmpty || sv.frontier.isEmpty) None
    else Some(if (su.depth.size <= sv.depth.size) su else sv)

  private def sketched(s: Sketch.S): Policy = (su, sv) => {
    val canU = su.frontier.nonEmpty; val canV = sv.frontier.nonEmpty
    val wantU = canU && s.dStarU > su.d
    val wantV = canV && s.dStarV > sv.d
    val pickU =
      if (wantU != wantV) wantU
      else if (canU != canV) canU
      else su.depth.size <= sv.depth.size
    if (!canU && !canV) None else Some(if (pickU) su else sv)
  }

  private def millisSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Expands `frontier` on `g`, counting the work. */
  private def expand(g: Traversal.Graph, frontier: collection.Set[Long], c: Counters)
                    (f: (Long, Long) => Unit): Unit =
    if (frontier.nonEmpty) {
      c.levels += 1
      g.expand(frontier) { (w, x) => c.edgesTraversed += 1; f(w, x) }
    }

  private def pairs(g: Traversal.Graph, frontier: collection.Set[Long],
                    c: Counters): mutable.ArrayBuffer[(Long, Long)] = {
    val out = mutable.ArrayBuffer.empty[(Long, Long)]
    expand(g, frontier, c)((w, x) => out += ((w, x)))
    out
  }

  /** Stage 1; returns the meeting set, empty if the sides did not meet. */
  private def stage1(g: Traversal.Graph, su: Side, sv: Side, bound: Int, pick: Policy,
                     c: Counters): collection.Set[Long] = {
    var meet: collection.Set[Long] = Set.empty
    var more = true
    while (more && meet.isEmpty && su.d + sv.d < bound) pick(su, sv) match {
      case None => more = false
      case Some(s) =>
        val other = if (s eq su) sv else su
        val next = mutable.HashSet.empty[Long]
        expand(g, s.frontier, c)((_, x) => if (!s.depth.contains(x)) next += x)
        s.d += 1
        next.foreach(s.depth(_) = s.d)
        s.frontier = next
        meet = next.filter(other.depth.contains)
    }
    meet
  }

  /** Stage 2: walks from the meeting set back to both roots. */
  private def reverse(meet: collection.Set[Long], su: Side, sv: Side): Seq[Walk] =
    if (meet.isEmpty) Nil
    else {
      // All meet vertices sit at exactly (d_u, d_v); keep the filter as a guard.
      val m = meet.filter(x => su.depth(x) + sv.depth(x) == su.d + sv.d)
      Seq((m, su.d, su.depth), (m, sv.d, sv.depth))
    }

  /** Stage 3 on one side: anchors `w` at depth `dm = min(σ - 1, d_t)` with
    * `δ_wr = σ - dm`, the label-decreasing `G⁻` paths from them to `r` (added to
    * `out`), and their walks back to the side's root.
    */
  private def recover(sub: Substrate, terminals: Map[Long, Int], side: Side, c: Counters,
                      out: mutable.Set[(Long, Long)]): Seq[Walk] = {
    def anchorDepth(sig: Int) = math.min(sig - 1, side.d)
    val candidates = terminals.map { case (r, sig) =>
      val dm = anchorDepth(sig)
      r -> side.depth.iterator.collect { case (w, d) if d == dm => w }.toSet
    }
    // one batched anchor-label fetch for all terminals of this side
    val anchorLabels = sub.labels(candidates.toSeq)
    terminals.toSeq.flatMap { case (r, sig) =>
      val dm = anchorDepth(sig)
      val anchors = candidates(r).filter(w => anchorLabels.get((r, w)).contains(sig - dm))
      if (anchors.isEmpty) None
      else {
        // forward: anchors -> r along label-decreasing G⁻ neighbours, then the final
        // hop (w, r) once δ = 1 (the label certifies the edge exists)
        var cur: collection.Set[Long] = anchors
        var dlt = sig - dm
        while (dlt > 1 && cur.nonEmpty) {
          val nbr = pairs(sub, cur, c)
          val cand = nbr.iterator.map(_._2).toSet
          val nl = sub.labels(Seq(r -> cand))
          val valid = cand.filter(w => nl.get((r, w)).contains(dlt - 1))
          nbr.foreach { case (a, b) =>
            if (valid.contains(b)) out += ((math.min(a, b), math.max(a, b)))
          }
          cur = valid
          dlt -= 1
        }
        cur.foreach(w => out += ((math.min(w, r), math.max(w, r))))
        // backward: anchors -> query vertex along the BFS depths
        Some((anchors, dm, side.depth))
      }
    }
  }

  /** Several reverse walks in lockstep: each tick expands the union of the walks'
    * current sets once and keeps, per walk, the edges `(x, y)` from its set to
    * `depth(y) = level - 1`. Returns those edges, canonical.
    */
  def walkBack(g: Traversal.Graph, walks: Seq[Walk], c: Counters): Set[(Long, Long)] = {
    val edges = Set.newBuilder[(Long, Long)]
    var active = walks.filter { case (s, lvl, _) => s.nonEmpty && lvl > 0 }
    while (active.nonEmpty) {
      val nbr = pairs(g, active.iterator.flatMap(_._1).toSet, c)
      active = active.flatMap { case (set, lvl, depth) =>
        val prev = mutable.HashSet.empty[Long]
        nbr.foreach { case (x, y) =>
          if (set.contains(x) && depth.getOrElse(y, -1) == lvl - 1) {
            edges += ((math.min(x, y), math.max(x, y)))
            prev += y
          }
        }
        if (lvl - 1 > 0 && prev.nonEmpty) Some((prev, lvl - 1, depth)) else None
      }
    }
    edges.result()
  }

  /** QbS's guided search (Algorithm 4) for `sketch`'s pair on `G⁻`.
    *
    * Which of stages 2/3 run follows Eq. (5): reverse iff the searches met
    * (`d_{G⁻} ≤ d⊤`), recover iff `d⊤` is finite and no strictly shorter `G⁻` path
    * exists (`d_{G⁻} ≥ d⊤`).
    */
  def guided(sub: Substrate, sketch: Sketch.S): GuidedSearch.Result = {
    val t0 = System.nanoTime()
    val c = new Counters
    val su = new Side(sketch.u); val sv = new Side(sketch.v)
    val meet = stage1(sub, su, sv, sketch.dTop.getOrElse(Int.MaxValue), sketched(sketch), c)
    val dGminus = if (meet.nonEmpty) Some(su.d + sv.d) else None
    val distance = (dGminus ++ sketch.dTop).minOption

    val out = mutable.Set.empty[(Long, Long)]
    val walks = mutable.ArrayBuffer.from(reverse(meet, su, sv))
    val usedRecover = sketch.dTop.exists(top => dGminus.forall(_ == top))
    if (usedRecover) {
      walks ++= recover(sub, sketch.terminalsU, su, c, out)
      walks ++= recover(sub, sketch.terminalsV, sv, c, out)
      // shortest paths between the sketch's landmarks: precomputed Δ segments
      if (sketch.metaEdges.nonEmpty) out ++= sub.delta(sketch.metaEdges)
    }
    out ++= walkBack(sub, walks.toSeq, c)

    GuidedSearch.Result(out.toSet, distance, meet.nonEmpty, usedRecover,
      c.levels, c.edgesTraversed, millisSince(t0))
  }

  /** Bi-BFS (paper §6.1): stages 1 and 2 on the full graph `g` with no sketch, sides
    * picked by visited-set size. `usedRecover` is always false.
    */
  def bibfs(g: Traversal.Graph, u: Long, v: Long): GuidedSearch.Result = {
    val t0 = System.nanoTime()
    val c = new Counters
    if (u == v)
      return GuidedSearch.Result(Set.empty, Some(0), usedReverse = false,
        usedRecover = false, 0, 0, millisSince(t0))
    val su = new Side(u); val sv = new Side(v)
    val meet = stage1(g, su, sv, Int.MaxValue, visitedSize, c)
    val edges = walkBack(g, reverse(meet, su, sv), c)
    GuidedSearch.Result(edges, if (meet.nonEmpty) Some(su.d + sv.d) else None,
      usedReverse = meet.nonEmpty, usedRecover = false, c.levels, c.edgesTraversed,
      millisSince(t0))
  }
}
