package repro.core

import repro.{Fixtures, SparkSpec}
import repro.graph.{GraphOps, LocalGraph}

/** The build at its edges: what it leaves persisted, more landmarks than one Pregel
  * batch holds, `Δ` against an independent reference, the engine of an index built
  * from its fields, and the one-byte depth limit.
  */
class IndexBuildSpec extends SparkSpec {

  /** Def. 4.2 by brute force: the labels and meta-edges the landmarks must give. */
  private def assertDef42(local: LocalGraph, lab: Labelling.Result): Unit = {
    val got = lab.labels.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
    val (expected, expectedMeta) = Fixtures.def42(local, lab.landmarks)
    assert(got === expected)
    assert(lab.metaEdges.toSet === expectedMeta)
  }

  test("QbS.build leaves nothing persisted once the index's DataFrames are unpersisted") {
    val df = GraphOps.fromPairs(spark, Fixtures.randomLocal(60, 2, 5L).edges.toSeq)
    val (_, left) = persistedBy {
      val (idx, held) = persistedBy(QbS.build(spark, df, numLandmarks = 4))
      assert(held.size === 1, "the build caches the edges and nothing else")
      Seq(idx.labels, idx.delta, idx.gMinusSym, idx.edges).foreach(_.unpersist(blocking = true))
    }
    assert(left.isEmpty, s"RDDs ${left.mkString(", ")} are still persisted")
  }

  private lazy val local70 = Fixtures.randomLocal(70, 2, 4L)
  private lazy val df70 = GraphOps.materialize(GraphOps.fromPairs(spark, local70.edges.toSeq))

  for ((name, count) <- Seq("65" -> ((_: Int) => 65), "|V| - 1" -> ((n: Int) => n - 1),
                            "|V|" -> ((n: Int) => n))) {
    test(s"|R| = $name: labels satisfy Def. 4.2 and queries equal the reference") {
      val n = local70.numVertices
      assert(n > 65)
      val landmarks = GraphOps.topDegreeLandmarks(df70, count(n))
      val lab = Labelling.run(spark, df70, landmarks)
      assertDef42(local70, lab)
      val idx = QbS.assemble(spark, df70, lab)
      val vs = local70.vertices
      val rnd = new scala.util.Random(n)
      val nonLm = vs.filterNot(landmarks.toSet)
      val pairs = Seq.fill(8)((vs(rnd.nextInt(n)), vs(rnd.nextInt(n)))) ++
        nonLm.flatMap(u => Seq((u, vs(rnd.nextInt(n))), (vs(rnd.nextInt(n)), u)))
      for ((u, v) <- pairs) {
        val a = QbS.query(idx, u, v)
        assert(a.edges === local70.spg(u, v), s"pair ($u,$v)")
        assert(a.distance === local70.distance(u, v), s"distance ($u,$v)")
      }
    }
  }

  for (seed <- Seq(7L, 8L, 9L)) {
    test(s"random graph seed=$seed: Δ(r, r') is the SPG of G[(V \\ R) ∪ {r, r'}] at σ") {
      val local = Fixtures.randomLocal(60, 2, seed)
      val df = GraphOps.materialize(GraphOps.fromPairs(spark, local.edges.toSeq))
      val landmarks = GraphOps.topDegreeLandmarks(df, 6)
      val lmSet = landmarks.toSet
      val lab = Labelling.run(spark, df, landmarks)
      assert(lab.metaEdges.nonEmpty)
      val delta = Labelling.delta(spark, df, lab).collect()
        .groupBy(r => (r.getLong(0), r.getLong(1)))
        .map { case (k, rows) => k -> rows.map(r => (r.getLong(2), r.getLong(3))).toSet }
      assert(delta.keySet === lab.metaEdges.map(e => (e._1, e._2)).toSet)
      for ((r, rp, sigma) <- lab.metaEdges) {
        val keep = lmSet - r - rp
        val sub = LocalGraph(local.edges.filterNot { case (a, b) => keep(a) || keep(b) })
        assert(sub.distance(r, rp) === Some(sigma), s"σ($r,$rp)")
        assert(delta((r, rp)) === sub.spg(r, rp), s"Δ($r,$rp)")
      }
      df.unpersist()
    }
  }

  /** An index rebuilt from its 9 fields, as a caller that runs the build's phases
    * itself constructs it: its engine is collected on first use, not prebuilt.
    */
  private def fromFields(i: QbS.Index): QbS.Index =
    QbS.Index(i.landmarks, i.labels, i.meta, i.delta, i.gMinusSym, i.edges,
      i.labelEntries, i.deltaEntries, i.buildMillis)

  for ((name, local, numLandmarks) <- Seq(("fig4", Fixtures.fig4Local, 3),
                                          ("random graph seed=6", Fixtures.randomLocal(60, 2, 6L), 5))) {
    test(s"$name: the engine collected from an index's fields equals the built one") {
      val df = GraphOps.materialize(GraphOps.fromPairs(spark, local.edges.toSeq))
      val built = QbS.build(spark, df, numLandmarks)
      val rebuilt = fromFields(built)
      val (collected, jobs) = jobsStartedBy(rebuilt.engine)
      assert(jobs <= 2, s"collecting the engine started $jobs Spark jobs")
      val e = built.engine
      for (v <- local.vertices :+ 999L) assert(collected.labelsOf(v) === e.labelsOf(v), s"L($v)")
      assert(built.meta.edges.nonEmpty)
      for ((r, rp, _) <- built.meta.edges)
        assert(collected.sparsified.delta(Set((r, rp))).toSet ===
          e.sparsified.delta(Set((r, rp))).toSet, s"Δ($r,$rp)")
      assert((collected.labelEntries, collected.deltaEntries) ===
        ((e.labelEntries, e.deltaEntries)))
      val vs = local.vertices
      val rnd = new scala.util.Random(vs.length)
      for ((u, v) <- Seq.fill(12)((vs(rnd.nextInt(vs.length)), vs(rnd.nextInt(vs.length))))) {
        val a = QbS.query(rebuilt, u, v)
        assert(a.copy(millis = 0) === QbS.query(built, u, v).copy(millis = 0), s"pair ($u,$v)")
        assert(a.edges === local.spg(u, v), s"pair ($u,$v)")
      }
      df.unpersist()
    }
  }

  test("depths saturate at 255 instead of wrapping, and 255 fails the matrix fill") {
    // a Pregel reaching depth 255 needs 255 supersteps, so the fill is tested directly
    assert(Seq(0, 1, 254).map(d => QueryEngine.depthByte(d) & 0xff) === Seq(0, 1, 254))
    for (d <- Seq(255, 256, 300, 511, Int.MaxValue))
      assert((QueryEngine.depthByte(d) & 0xff) === 255, s"depth $d")
    def fill(d: Int, v: Long) = Labelling.fromBatches(spark, Seq(0L, 9L), Array(0L, 5L, 9L),
      Seq(Seq(0L, 9L) -> Array((v, 1L, Array(QueryEngine.depthByte(d), 0.toByte)))))
    val fits = fill(254, 5L)
    assert(fits.labels.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))) ===
      Array((5L, 0L, 254)))
    assert(fill(254, 9L).metaEdges === Seq((0L, 9L, 254)))
    for (d <- Seq(255, 300); v <- Seq(5L, 9L)) {
      val e = intercept[IllegalArgumentException](fill(d, v))
      assert(e.getMessage.contains(s"($v, 0) has distance 255"), e.getMessage)
      assert(e.getMessage.contains("one-byte label encoding"), e.getMessage)
    }
  }
}
