package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

/** PPL (Algorithm 1): the paper's Figure-3 label table, 2-hop path cover, and
  * query correctness vs the local reference.
  */
class PplSpec extends AnyFunSuite {

  private val g3 = Fixtures.fig3Local
  // the paper's example uses landmark order 1, 2, …, 7
  private val index = Ppl.build(g3, withParents = false,
    orderOverride = Some((1L to 7L).toArray))

  test("fig3: construction succeeds") {
    assert(index.status === Ppl.Ok)
  }

  for (v <- 1L to 7L) {
    test(s"fig3: PPL label of vertex $v matches Figure 3(b) (black + green)") {
      val got = index.labels(v)
        .map(e => (index.vertexOf(e.lmRank), e.dist)).toSet
      assert(got === Fixtures.fig3Labels(v))
    }
  }

  test("fig3: query SPG(3,7) returns the paper's green answer") {
    val r = Ppl.spgQuery(index, 3L, 7L, withParents = false)
    assert(r.edges === Fixtures.fig3Spg37)
    assert(r.distance === Some(4))
  }

  test("fig3: PPL equals the reference for every pair") {
    for (u <- 1L to 7L; v <- 1L to 7L if u < v) {
      val r = Ppl.spgQuery(index, u, v, withParents = false)
      assert(r.edges === g3.spg(u, v), s"pair ($u,$v)")
      assert(r.distance === g3.distance(u, v), s"distance ($u,$v)")
    }
  }

  test("labels satisfy 2-hop distance cover on fig3") {
    for (u <- 1L to 7L; v <- 1L to 7L if u < v) {
      val lu = index.labelsOf(u); val lv = index.labelsOf(v)
      val common = lu.keySet.intersect(lv.keySet)
      val d = common.map(r => lu(r).dist + lv(r).dist).min
      assert(d === g3.distance(u, v).get, s"pair ($u,$v)")
    }
  }

  test("labels satisfy 2-hop path cover (Def. 3.2) on fig3 — brute force") {
    // for every pair at distance >= 2, every shortest path must have an internal
    // vertex r present in both labels with exact distances
    for (u <- 1L to 7L; v <- 1L to 7L if u < v && g3.distance(u, v).exists(_ >= 2)) {
      val d = g3.distance(u, v).get
      val du = g3.bfs(u); val dv = g3.bfs(v)
      val lu = index.labelsOf(u); val lv = index.labelsOf(v)
      // internal vertices on SOME shortest path
      val internal = g3.vertices.filter(w =>
        w != u && w != v && du.get(w).zip(dv.get(w)).exists { case (a, b) => a + b == d })
      // Eq (1): at least one such internal vertex must be a common landmark; we check
      // the stronger per-path variant via the reference SPG equality test above, and
      // here that the cover value equals d at all.
      val covered = internal.filter(r =>
        lu.get(r).map(_.dist) == du.get(r) && lv.get(r).map(_.dist) == dv.get(r))
      assert(covered.nonEmpty, s"pair ($u,$v) has no internal covering landmark")
    }
  }

  for (seed <- 1L to 5L) {
    test(s"random graph seed=$seed: PPL is sound on sampled pairs") {
      val g = Fixtures.randomLocal(80, 2, seed)
      val idx = Ppl.build(g, withParents = false)
      assert(idx.status === Ppl.Ok)
      val rnd = new scala.util.Random(seed)
      val vs = g.vertices
      for (_ <- 1 to 8) {
        val u = vs(rnd.nextInt(vs.length)); val v = vs(rnd.nextInt(vs.length))
        if (u != v) {
          val r = Ppl.spgQuery(idx, u, v, withParents = false)
          Fixtures.assertSoundSpg(g, u, v, r.edges, r.distance)
        }
      }
    }
  }

  test("documented incompleteness: Algorithm 1's '='-case traversal stop can drop " +
       "shortest paths (counterexample: seed-1 graph, pair (2,30))") {
    // The '=' case stores a label but stops traversal, so vertices behind the
    // stopped frontier never receive the root's label; the shortest path through
    // edges (0,12),(5,12) then has no internal vertex common to L(2) and L(30),
    // violating Eq. (1), and the recursive query cannot rebuild it.
    val g = Fixtures.randomLocal(80, 2, 1L)
    val idx = Ppl.build(g, withParents = false)
    val r = Ppl.spgQuery(idx, 2L, 30L, withParents = false)
    Fixtures.assertSoundSpg(g, 2L, 30L, r.edges, r.distance) // still sound...
    assert(r.edges !== g.spg(2L, 30L), "...but provably incomplete")
    assert(g.spg(2L, 30L).diff(r.edges) === Set((0L, 12L), (5L, 12L)))
  }

  test("time budget of 0 ms yields Dnf with no labels") {
    val idx = Ppl.build(Fixtures.randomLocal(200, 3, 9L), withParents = false,
      budgetMillis = 0L)
    assert(idx.status === Ppl.Dnf)
    assert(idx.labels.isEmpty)
  }

  test("entry budget of 10 yields Ooe") {
    val idx = Ppl.build(Fixtures.randomLocal(200, 3, 9L), withParents = false,
      maxEntries = 10L)
    assert(idx.status === Ppl.Ooe)
    assert(idx.labels.isEmpty)
  }

  test("PPL labelling size is far below the naive |V|^2 bound") {
    val g = Fixtures.randomLocal(300, 3, 4L)
    val idx = Ppl.build(g, withParents = false)
    assert(idx.entries < g.numVertices.toLong * g.numVertices / 4,
      s"pruning ineffective: ${idx.entries} entries")
  }

  test("query counters are populated") {
    val r = Ppl.spgQuery(index, 3L, 7L, withParents = false)
    assert(r.rounds >= 2 && r.entriesFetched > 0)
  }

  test("construction work counter is populated") {
    assert(index.edgeScans > 0)
  }
}
