package repro.bench

import repro.SparkSpec
import repro.baselines.Ppl

/** Reproduces the paper's Table 2 (construction + query time) and asserts the
  * qualitative shape the paper reports:
  *   - QbS-P construction beats sequential QbS (parallel labelling speed-up);
  *   - QbS construction scales where PPL/ParentPPL hit the (scaled) DNF/OOE caps;
  *   - QbS answers queries with less traversal work than Bi-BFS, and faster on
  *     most datasets.
  * Absolute numbers differ from the paper (Spark local vs C++/512GB box); shapes are
  * the reproduction target (DESIGN.md §3.2).
  */
class Table2Bench extends SparkSpec {

  private lazy val ms = BenchRun.results

  test("Table 2 renders") {
    println("\n== Table 2: construction and query time (paper Table 2) ==")
    println(Experiments.renderTable2(ms))
    assert(ms.nonEmpty)
  }

  test("QbS-P labelling is faster than sequential QbS on most datasets") {
    val wins = ms.count(m => m.qbsPBuildSec < m.qbsBuildSec)
    assert(wins >= (ms.size * 3) / 4, s"QbS-P won only $wins/${ms.size}")
  }

  test("QbS(-P) construction completes on every dataset (no DNF/OOE)") {
    ms.foreach(m => assert(m.qbsPBuildSec > 0 && m.qbsBuildSec > 0, m.spec.name))
  }

  test("PPL hits DNF/OOE on larger datasets but completes on smaller ones") {
    val ok = ms.filter(_.pplStatus == Ppl.Ok).map(_.spec.abbrev)
    val failed = ms.filter(_.pplStatus != Ppl.Ok).map(_.spec.abbrev)
    info(s"PPL ok on: $ok; DNF/OOE on: $failed")
    assert(failed.nonEmpty, "caps too generous: PPL never failed — shape lost")
    assert(ok.nonEmpty, "caps too harsh: PPL never completed — shape lost")
  }

  test("ParentPPL fails at least as often as PPL (paper: 10/12 vs 7/12 failures)") {
    val pplFails = ms.count(_.pplStatus != Ppl.Ok)
    val parentFails = ms.count(_.parentStatus != Ppl.Ok)
    assert(parentFails >= pplFails, s"ParentPPL failed $parentFails < PPL $pplFails")
  }

  test("QbS never traverses materially more than Bi-BFS, and strictly less on most") {
    // On flat-degree analogs (Orkut/Friendster) landmarks remove little and the two
    // searches tie — exactly the paper's Friendster discussion (§6.3); everywhere
    // else the sketch bound + sparsification must cut traversal.
    ms.foreach { m =>
      assert(m.qbs.avgEdgesTraversed <= m.bibfs.avgEdgesTraversed * 1.1 + 10,
        s"${m.spec.name}: QbS ${m.qbs.avgEdgesTraversed} vs Bi-BFS ${m.bibfs.avgEdgesTraversed}")
    }
    val strictWins = ms.count(m => m.qbs.avgEdgesTraversed < 0.9 * m.bibfs.avgEdgesTraversed)
    assert(strictWins >= (ms.size * 3) / 5, s"strict work wins only $strictWins/${ms.size}")
  }

  test("QbS wall time is overhead-bounded and wins where per-level work dominates") {
    // Both run on the driver-local query engine with no Spark job. On analogs of
    // ~10^4 vertices a query traverses tens to a few thousand edges in well under a
    // millisecond, and QbS has fixed steps Bi-BFS lacks (sketch, label reads, recover
    // search, Δ), so the paper's 10-300x wall gap cannot materialize at this scale.
    // The wall signal that survives is (a) QbS stays within a small constant factor
    // everywhere and (b) where Bi-BFS's traversal dominates, as on the hub analogs,
    // QbS wins outright (see EXPERIMENTS.md).
    val avgQ = ms.map(_.qbs.avgMs).sum / ms.size
    val avgB = ms.map(_.bibfs.avgMs).sum / ms.size
    assert(avgQ <= 2.5 * avgB, f"QbS avg $avgQ%.0fms vs Bi-BFS avg $avgB%.0fms")
    val wins = ms.count(m => m.qbs.avgMs < m.bibfs.avgMs)
    assert(wins >= 1, "QbS should win wall time on at least the densest hub analog")
  }

  test("QbS answers faster than PPL queries on most datasets where PPL completed") {
    val comparable = ms.flatMap(m => m.ppl.map(p => (m.spec.abbrev, m.qbs.avgMs, p.avgMs)))
    val wins = comparable.count { case (_, q, p) => q < p }
    info(comparable.map { case (a, q, p) => f"$a: QbS $q%.0f vs PPL $p%.0f ms" }.mkString("; "))
    assert(comparable.isEmpty || wins * 2 >= comparable.size,
      s"QbS won only $wins/${comparable.size}")
  }

  test("pair coverage is populated (Fig. 8 companion stat)") {
    val total = ms.map(m => m.coverage.values.sum).sum
    assert(total > 0)
    info(ms.map(m => s"${m.spec.abbrev}: ${m.coverage}").mkString("; "))
  }
}
