package repro.core

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
  * The core runs on dense `Int` vertex handles and keeps its state in a [[Scratch]]
  * of primitive arrays indexed by handle, which the substrate supplies (one per thread
  * on the engine, one per query on DataFrames). Sets are epoch stamps in those arrays,
  * so a search touches only the entries of the vertices it visits, and its work grows
  * with them, never with `|V|`. Only the final edge set is built as `(Long, Long)` ids.
  *
  * The core counts the work, so every substrate counts alike: one level per expansion
  * of a non-empty frontier and one edge per pair it yields. Label and `Δ` fetches are
  * not counted.
  */
object BiSearch {

  /** An undirected graph over dense handles `0 until size` that can expand a frontier. */
  trait Graph {

    /** The handle of vertex `v`, or -1 if `v` is not a vertex. */
    def handle(v: Long): Int

    /** The vertex id of handle `h`. */
    def id(h: Int): Long

    /** Every handle is below `size`. */
    def size: Int

    /** Appends `w, x` to `out` once per symmetric edge `(w, x)` with `w` in
      * `vs(from until until)`.
      */
    def expand(vs: Array[Int], from: Int, until: Int, out: Ints): Unit

    /** The scratch a search on this substrate uses; one search at a time per scratch. */
    def scratch: Scratch
  }

  /** What the guided search needs besides expansion on `G⁻`: labels and `Δ`. Landmarks
    * are addressed by position `k` in `landmarks`, as in a [[Sketch.S]].
    */
  trait Labelled extends Graph {

    /** The landmark order the positions refer to. */
    def landmarks: Seq[Long]

    /** The handle of the landmark at position `k`. */
    def landmark(k: Int): Int

    /** `δ_wr` for `w`'s label for the landmark `r` at position `k`, or -1 for none. */
    def label(w: Int, k: Int): Int

    /** True if labels must be fetched with [[prefetch]] before [[label]] reads them. */
    def remote: Boolean

    /** Fetches the labels of the pairs `(k, w)` laid out flat in `reqs`. */
    def prefetch(reqs: Ints): Unit

    /** Adds the `Δ` edges of the sketch's meta-edges to `out`. */
    def delta(sketch: Sketch.S, out: EdgeSet.Builder): Unit
  }

  /** A growable list of ints, reused across searches; pairs are laid out flat. */
  final class Ints {
    var a: Array[Int] = new Array[Int](16)
    var n: Int = 0

    def clear(): Unit = n = 0

    def +=(x: Int): Unit = {
      if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
      a(n) = x
      n += 1
    }
  }

  /** One side of stage 1: BFS depths from its root. `seen(x) == stamp` marks a visited
    * `x`, at `depth(x)`; `order` lists the visited handles level by level, depth `d`
    * from `levels(d)`, so the frontier is `order(levels(d) until count)`.
    */
  final class Side {
    var seen = new Array[Int](0)
    var depth = new Array[Int](0)
    var order = new Array[Int](0)
    var stamp = 0
    val levels = new Ints
    var count = 0
    /** The depth of the deepest level expanded into. */
    var d = 0

    def grow(n: Int): Unit = {
      seen = java.util.Arrays.copyOf(seen, n)
      depth = java.util.Arrays.copyOf(depth, n)
      order = java.util.Arrays.copyOf(order, n)
    }

    def start(s: Int, root: Int): Unit = {
      stamp = s; count = 0; d = 0
      levels.clear(); levels += 0
      visit(root, 0)
    }

    def has(x: Int): Boolean = seen(x) == stamp

    /** The BFS depth of `x`, or -1 if this side has not reached it. */
    def depthOf(x: Int): Int = if (seen(x) == stamp) depth(x) else -1

    /** Records `x` at depth `dx`; tests load a side's depths with it. */
    def visit(x: Int, dx: Int): Unit = {
      seen(x) = stamp; depth(x) = dx; order(count) = x; count += 1
    }

    def frontierEmpty: Boolean = levels.a(d) == count
    def levelStart(l: Int): Int = levels.a(l)
    def levelEnd(l: Int): Int = if (l < d) levels.a(l + 1) else count
  }

  /** Everything a search writes, indexed by handle and reused from search to search:
    * per side `seen`, `depth` and `order` (three arrays), and two mark arrays for the
    * transient sets of the recover search and the walk-back, so eight `Int`s per vertex
    * of the substrate (32 bytes). Arrays grow with the substrate's handles; growable
    * lists hold frontier pairs, walks and edges.
    */
  final class Scratch (initialSize: Int) {
    val u = new Side
    val v = new Side
    var markA = new Array[Int](0)
    var markB = new Array[Int](0)
    private var size = 0
    private var stamps = 0

    val pairs = new Ints
    val meet = new Ints
    val edges = new Ints
    val reqs = new Ints
    var cur = new Ints
    var nxt = new Ints
    /** Walk members, and walk records `(start, end, level, side)` over them. */
    var walks = new Ints
    var walkRec = new Ints
    var walks2 = new Ints
    var walkRec2 = new Ints

    ensure(initialSize)

    /** Grows the arrays to cover handles below `n`. */
    def ensure(n: Int): Unit =
      if (n > size) {
        val m = math.max(n, 2 * size)
        u.grow(m); v.grow(m)
        markA = java.util.Arrays.copyOf(markA, m)
        markB = java.util.Arrays.copyOf(markB, m)
        size = m
      }

    /** A stamp no array holds yet. Stamps are spent per set, so they outlast any one
      * search by far; [[begin]] clears the arrays before they could wrap.
      */
    def fresh(): Int = { stamps += 1; stamps }

    def side(i: Int): Side = if (i == 0) u else v

    /** Starts a search of `g` rooted at `hu` and `hv`. */
    def begin(g: Graph, hu: Int, hv: Int): Unit = {
      ensure(g.size)
      if (stamps > Int.MaxValue / 2) {
        for (a <- Seq(u.seen, v.seen, markA, markB)) java.util.Arrays.fill(a, 0)
        stamps = 0
      }
      u.start(fresh(), hu)
      v.start(fresh(), hv)
      meet.clear(); edges.clear(); walks.clear(); walkRec.clear()
    }

    /** Adds a reverse walk from the members `walks(start until walks.n)` at `level`
      * down the depths of side `side` (0 for `u`, 1 for `v`).
      */
    def addWalk(start: Int, level: Int, side: Int): Unit = {
      walkRec += start; walkRec += walks.n; walkRec += level; walkRec += side
    }

    /** Adds the edges found so far to `out`, as vertex ids. */
    def addEdges(g: Graph, out: EdgeSet.Builder): Unit = {
      var i = 0
      while (i < edges.n) { out.add(g.id(edges.a(i)), g.id(edges.a(i + 1))); i += 2 }
    }

    /** The edges found so far, as a set of canonical vertex-id pairs. */
    def edgeSet(g: Graph): EdgeSet = {
      val b = new EdgeSet.Builder
      addEdges(g, b)
      b.result()
    }
  }

  /** Work counters of one search. */
  final class Counters {
    var levels: Int = 0
    var edgesTraversed: Long = 0L
  }

  /** Picks the side to expand next: 0 for `u`, 1 for `v`, -1 to stop. */
  private type Policy = (Side, Side) => Int

  private val visitedSize: Policy = (su, sv) =>
    if (su.frontierEmpty || sv.frontierEmpty) -1
    else if (su.count <= sv.count) 0 else 1

  private def sketched(s: Sketch.S): Policy = (su, sv) => {
    val canU = !su.frontierEmpty; val canV = !sv.frontierEmpty
    val wantU = canU && s.dStarU > su.d
    val wantV = canV && s.dStarV > sv.d
    val pickU =
      if (wantU != wantV) wantU
      else if (canU != canV) canU
      else su.count <= sv.count
    if (!canU && !canV) -1 else if (pickU) 0 else 1
  }

  private def millisSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Expands `vs(from until until)` on `g` into the scratch's pairs, counting the work. */
  private def expand(g: Graph, scr: Scratch, vs: Array[Int], from: Int, until: Int,
                     c: Counters): Ints = {
    val out = scr.pairs
    out.clear()
    if (until > from) {
      c.levels += 1
      g.expand(vs, from, until, out)
      c.edgesTraversed += out.n / 2
      scr.ensure(g.size) // a DataFrame substrate interns the handles it returns
    }
    out
  }

  /** Stage 1; leaves the meeting set in `scr.meet`, empty if the sides did not meet. */
  private def stage1(g: Graph, scr: Scratch, bound: Int, pick: Policy, c: Counters): Unit = {
    val (su, sv) = (scr.u, scr.v)
    var next = 0
    while (next >= 0 && scr.meet.n == 0 && su.d + sv.d < bound) {
      next = pick(su, sv)
      if (next >= 0) {
        val (s, other) = if (next == 0) (su, sv) else (sv, su)
        val out = expand(g, scr, s.order, s.levelStart(s.d), s.count, c)
        val start = s.count
        s.d += 1
        s.levels += start
        var i = 1
        while (i < out.n) {
          val x = out.a(i)
          if (!s.has(x)) s.visit(x, s.d)
          i += 2
        }
        var j = start
        while (j < s.count) {
          val x = s.order(j)
          if (other.has(x)) scr.meet += x
          j += 1
        }
      }
    }
  }

  /** Stage 2: walks from the meeting set back to both roots (two walk records over one
    * member list).
    */
  private def reverse(scr: Scratch): Unit =
    if (scr.meet.n > 0) {
      val (su, sv) = (scr.u, scr.v)
      val start = scr.walks.n
      // All meet vertices sit at exactly (d_u, d_v); keep the filter as a guard.
      var i = 0
      while (i < scr.meet.n) {
        val x = scr.meet.a(i)
        if (su.depthOf(x) + sv.depthOf(x) == su.d + sv.d) scr.walks += x
        i += 1
      }
      scr.addWalk(start, su.d, 0)
      scr.addWalk(start, sv.d, 1)
    }

  /** Stage 3 on side `si`: for each terminal `(k, σ)` (position `k`, `σ = term(k)`),
    * anchors `w` at depth `dm = min(σ - 1, d_t)` with `δ_wr = σ - dm`, the
    * label-decreasing `G⁻` paths from them to `r` (added to the edges), and their
    * walks back to the side's root.
    */
  private def recover(sub: Labelled, scr: Scratch, term: Array[Int], si: Int,
                      c: Counters): Unit = {
    val side = scr.side(si)
    def anchorDepth(sig: Int) = math.min(sig - 1, side.d)
    if (sub.remote) {
      // one batched anchor-label fetch for all terminals of this side
      scr.reqs.clear()
      for (k <- term.indices if term(k) >= 0) {
        val dm = anchorDepth(term(k))
        for (j <- side.levelStart(dm) until side.levelEnd(dm)) {
          scr.reqs += k; scr.reqs += side.order(j)
        }
      }
      sub.prefetch(scr.reqs)
    }
    var k = 0
    while (k < term.length) {
      val sig = term(k)
      if (sig >= 0) {
        val dm = anchorDepth(sig)
        val start = scr.walks.n
        var j = side.levelStart(dm)
        while (j < side.levelEnd(dm)) {
          val w = side.order(j)
          if (sub.label(w, k) == sig - dm) scr.walks += w
          j += 1
        }
        if (scr.walks.n > start) {
          // forward: anchors -> r along label-decreasing G⁻ neighbours, then the final
          // hop (w, r) once δ = 1 (the label certifies the edge exists)
          scr.cur.clear()
          var i = start
          while (i < scr.walks.n) { scr.cur += scr.walks.a(i); i += 1 }
          var dlt = sig - dm
          while (dlt > 1 && scr.cur.n > 0) {
            val nbr = expand(sub, scr, scr.cur.a, 0, scr.cur.n, c)
            val cand = scr.nxt
            cand.clear()
            val seen = scr.fresh()
            i = 1
            while (i < nbr.n) {
              val b = nbr.a(i)
              if (scr.markA(b) != seen) { scr.markA(b) = seen; cand += b }
              i += 2
            }
            if (sub.remote) {
              scr.reqs.clear()
              for (i <- 0 until cand.n) { scr.reqs += k; scr.reqs += cand.a(i) }
              sub.prefetch(scr.reqs)
            }
            // keep the valid candidates, in place, and mark them
            val valid = scr.fresh()
            var n = 0
            i = 0
            while (i < cand.n) {
              val b = cand.a(i)
              if (sub.label(b, k) == dlt - 1) { scr.markA(b) = valid; cand.a(n) = b; n += 1 }
              i += 1
            }
            cand.n = n
            i = 0
            while (i < nbr.n) {
              if (scr.markA(nbr.a(i + 1)) == valid) {
                scr.edges += nbr.a(i); scr.edges += nbr.a(i + 1)
              }
              i += 2
            }
            scr.nxt = scr.cur; scr.cur = cand
            dlt -= 1
          }
          val r = sub.landmark(k)
          i = 0
          while (i < scr.cur.n) { scr.edges += scr.cur.a(i); scr.edges += r; i += 1 }
          // backward: anchors -> query vertex along the BFS depths
          scr.addWalk(start, dm, si)
        }
      }
      k += 1
    }
  }

  /** Runs the scratch's reverse walks in lockstep: each tick expands the union of the
    * walks' current sets once and keeps, per walk, the edges `(x, y)` from its set to
    * `depth(y) = level - 1` on its side, adding them to the scratch's edges.
    */
  private[core] def walkBack(g: Graph, scr: Scratch, c: Counters): Unit = {
    // drop the walks with an empty set or at the root
    val first = scr.walkRec
    var n = 0
    var r = 0
    while (r < first.n) {
      if (first.a(r + 1) > first.a(r) && first.a(r + 2) > 0) {
        System.arraycopy(first.a, r, first.a, n, 4)
        n += 4
      }
      r += 4
    }
    first.n = n
    val union = scr.cur
    while (scr.walkRec.n > 0) {
      val (walks, rec) = (scr.walks, scr.walkRec)
      val inUnion = scr.fresh()
      union.clear()
      r = 0
      while (r < rec.n) {
        var i = rec.a(r)
        while (i < rec.a(r + 1)) {
          val x = walks.a(i)
          if (scr.markA(x) != inUnion) { scr.markA(x) = inUnion; union += x }
          i += 1
        }
        r += 4
      }
      val nbr = expand(g, scr, union.a, 0, union.n, c)
      val (next, nextRec) = (scr.walks2, scr.walkRec2)
      next.clear(); nextRec.clear()
      r = 0
      while (r < rec.n) {
        val lvl = rec.a(r + 2); val side = scr.side(rec.a(r + 3))
        val inSet = scr.fresh()
        var i = rec.a(r)
        while (i < rec.a(r + 1)) { scr.markA(walks.a(i)) = inSet; i += 1 }
        val inPrev = scr.fresh()
        val start = next.n
        i = 0
        while (i < nbr.n) {
          val x = nbr.a(i); val y = nbr.a(i + 1)
          if (scr.markA(x) == inSet && side.depthOf(y) == lvl - 1) {
            scr.edges += x; scr.edges += y
            if (scr.markB(y) != inPrev) { scr.markB(y) = inPrev; next += y }
          }
          i += 2
        }
        if (lvl - 1 > 0 && next.n > start) {
          nextRec += start; nextRec += next.n; nextRec += lvl - 1; nextRec += rec.a(r + 3)
        } else next.n = start
        r += 4
      }
      scr.walks = next; scr.walkRec = nextRec
      scr.walks2 = walks; scr.walkRec2 = rec
    }
  }

  private def empty(distance: Option[Int], t0: Long): GuidedSearch.Result =
    GuidedSearch.Result(Set.empty, distance, usedReverse = false, usedRecover = false, 0, 0,
      millisSince(t0))

  /** QbS's guided search (Algorithm 4) for `sketch`'s pair on `G⁻`. A pair with an
    * endpoint that is not a vertex of `sub` has no answer and runs no search.
    *
    * Which of stages 2/3 run follows Eq. (5): reverse iff the searches met
    * (`d_{G⁻} ≤ d⊤`), recover iff `d⊤` is finite and no strictly shorter `G⁻` path
    * exists (`d_{G⁻} ≥ d⊤`).
    */
  def guided(sub: Labelled, sketch: Sketch.S): GuidedSearch.Result = {
    val t0 = System.nanoTime()
    require(sketch.landmarks == sub.landmarks,
      "the sketch's landmark positions differ from the substrate's")
    val (hu, hv) = (sub.handle(sketch.u), sub.handle(sketch.v))
    if (hu < 0 || hv < 0) return empty(None, t0)
    val c = new Counters
    val scr = sub.scratch
    scr.begin(sub, hu, hv)
    stage1(sub, scr, sketch.dTop.getOrElse(Int.MaxValue), sketched(sketch), c)
    val met = scr.meet.n > 0
    val dGminus = scr.u.d + scr.v.d // if met
    val top = sketch.dTop.getOrElse(-1)
    val distance = if (met && (top < 0 || dGminus <= top)) Some(dGminus) else sketch.dTop

    reverse(scr)
    val usedRecover = top >= 0 && (!met || dGminus == top)
    if (usedRecover) {
      recover(sub, scr, sketch.termU, 0, c)
      recover(sub, scr, sketch.termV, 1, c)
    }
    walkBack(sub, scr, c)
    val edges = new EdgeSet.Builder
    scr.addEdges(sub, edges)
    // shortest paths between the sketch's landmarks: precomputed Δ segments
    if (usedRecover) sub.delta(sketch, edges)
    GuidedSearch.Result(edges.result(), distance, met, usedRecover, c.levels, c.edgesTraversed,
      millisSince(t0))
  }

  /** Bi-BFS (paper §6.1): stages 1 and 2 on the full graph `g` with no sketch, sides
    * picked by visited-set size. `usedRecover` is always false. A pair with an endpoint
    * that is not a vertex of `g` has no answer and runs no search.
    */
  def bibfs(g: Graph, u: Long, v: Long): GuidedSearch.Result = {
    val t0 = System.nanoTime()
    if (u == v) return empty(Some(0), t0)
    val (hu, hv) = (g.handle(u), g.handle(v))
    if (hu < 0 || hv < 0) return empty(None, t0)
    val c = new Counters
    val scr = g.scratch
    scr.begin(g, hu, hv)
    stage1(g, scr, Int.MaxValue, visitedSize, c)
    val met = scr.meet.n > 0
    reverse(scr)
    walkBack(g, scr, c)
    GuidedSearch.Result(scr.edgeSet(g), if (met) Some(scr.u.d + scr.v.d) else None,
      usedReverse = met, usedRecover = false, c.levels, c.edgesTraversed, millisSince(t0))
  }
}
