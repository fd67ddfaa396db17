package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

/** ParentPPL: parent sets are complete and the parent-walk query is exact. */
class ParentPplSpec extends AnyFunSuite {

  private val g3 = Fixtures.fig3Local
  private val index = Ppl.build(g3, withParents = true,
    orderOverride = Some((1L to 7L).toArray))

  test("fig3: construction succeeds") {
    assert(index.status === Ppl.Ok)
  }

  test("fig3: parent sets point one step toward the landmark") {
    // L(7) entry for landmark 1 at distance 3: parents = {5} (7-5-2-1)
    val e7 = index.labelsOf(7L)(1L)
    assert(e7.dist === 3)
    assert(e7.parents.toSet === Set(5L))
    // L(4) entry for landmark 1 at distance 2: parents = {2, 3}
    val e4 = index.labelsOf(4L)(1L)
    assert(e4.dist === 2)
    assert(e4.parents.toSet === Set(2L, 3L))
  }

  test("fig3: query SPG(3,7) via parent walks equals the paper's answer") {
    val r = Ppl.spgQuery(index, 3L, 7L, withParents = true)
    assert(r.edges === Fixtures.fig3Spg37)
  }

  test("fig3: ParentPPL equals the reference for every pair") {
    for (u <- 1L to 7L; v <- 1L to 7L if u < v) {
      val r = Ppl.spgQuery(index, u, v, withParents = true)
      assert(r.edges === g3.spg(u, v), s"pair ($u,$v)")
    }
  }

  test("ParentPPL stores at least as much data as PPL") {
    val ppl = Ppl.build(g3, withParents = false,
      orderOverride = Some((1L to 7L).toArray))
    assert(index.entries + index.parentRefs > ppl.entries)
  }

  for (seed <- 1L to 5L) {
    test(s"random graph seed=$seed: ParentPPL is sound on sampled pairs") {
      val g = Fixtures.randomLocal(80, 2, seed)
      val idx = Ppl.build(g, withParents = true)
      assert(idx.status === Ppl.Ok)
      val rnd = new scala.util.Random(seed + 100)
      val vs = g.vertices
      for (_ <- 1 to 8) {
        val u = vs(rnd.nextInt(vs.length)); val v = vs(rnd.nextInt(vs.length))
        if (u != v) {
          val r = Ppl.spgQuery(idx, u, v, withParents = true)
          Fixtures.assertSoundSpg(g, u, v, r.edges, r.distance)
        }
      }
    }
  }

  test("parent refs roughly double the labelling size (Table 3 shape)") {
    val g = Fixtures.randomLocal(200, 3, 3L)
    val ppl = Ppl.build(g, withParents = false)
    val par = Ppl.build(g, withParents = true)
    assert(par.entries === ppl.entries, "same storage rule, same entries")
    assert(par.parentRefs >= ppl.entries / 2, "parents add substantial size")
  }

  test("tight entry budget yields Ooe faster than PPL does") {
    val g = Fixtures.randomLocal(150, 4, 3L)
    val cap = Ppl.build(g, withParents = false).entries // PPL fits exactly
    val idx = Ppl.build(g, withParents = true, maxEntries = cap)
    assert(idx.status === Ppl.Ooe, "parent refs must blow the same budget")
  }
}
