package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import repro.{Fixtures, SparkSpec}
import repro.graph.{GraphOps, LocalGraph}
import scala.util.Random

/** The build at its edges: its Spark jobs and what it leaves persisted, up to `|V|`
  * landmarks, `Δ` against an independent reference, the engine of an index built from
  * its fields, the one-byte depth limit on real paths, and a differential of
  * `QbS.build` + `QbS.query` on generated shapes.
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
    val local = Fixtures.randomLocal(60, 2, 5L)
    val df = GraphOps.fromPairs(spark, local.edges.toSeq)
    // |R| at the first cut of the degree order that splits a tie (the smaller ids win)
    val byDegree = local.vertices.sortBy(v => (-local.degree(v), v))
    val k = (2 to 20).find(k => local.degree(byDegree(k - 1)) == local.degree(byDegree(k))).get
    val (_, left) = persistedBy {
      val (idx, held) = persistedBy(QbS.build(spark, df, numLandmarks = k))
      assert(held.size === 1, "the build caches the edges and nothing else")
      // on its cached input, one job collects the edges and one runs the labelling
      val (again, jobs) = jobsStartedBy(QbS.build(spark, df, numLandmarks = k))
      assert(jobs <= 2, s"the build started $jobs Spark jobs")
      assert(again.landmarks === idx.landmarks)
      idx.edges.unpersist(blocking = true)
      assert(!spark.sparkContext.getPersistentRDDs.contains(held.head),
        "the one RDD the build persisted is the edge cache")
      assert(idx.landmarks === byDegree.take(k).toSeq)
      assert(idx.landmarks === GraphOps.topDegreeLandmarks(df, k))
      Seq(idx.labels, idx.delta, idx.gMinusSym).foreach(_.unpersist(blocking = true))
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

  /** A path `0 – 1 – … – (n-1)` whose ends in `hubs` carry two extra leaves each, so
    * that the degree pick makes exactly those ends the landmarks.
    */
  private def pathWithHubs(n: Int, hubs: Long*): LocalGraph =
    LocalGraph(((0L until n - 1L).map(i => (i, i + 1)) ++
      hubs.flatMap(h => Seq((h, 1000L + 2 * h), (h, 1001L + 2 * h)))).toArray)

  test("a 255-vertex path with the landmark at one end labels to depth 254") {
    val local = pathWithHubs(255, 0L)
    val df = GraphOps.fromPairs(spark, local.edges.toSeq)
    val idx = QbS.build(spark, df, numLandmarks = 1)
    assert(idx.landmarks === Seq(0L))
    val labels = idx.labels.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
    assert(labels === Fixtures.def42(local, idx.landmarks)._1)
    assert(idx.engine.labelsOf(254L) === Map(0L -> 254))
    val a = QbS.query(idx, 1L, 254L)
    assert(a.distance === Some(253) && a.edges === local.spg(1L, 254L))
    idx.edges.unpersist()
  }

  test("a 256-vertex path fails the build with the one-byte label encoding error") {
    // the deepest label is at 255 with one landmark, the meta-edge with one at each end
    for (hubs <- Seq(Seq(0L), Seq(0L, 255L))) {
      val df = GraphOps.fromPairs(spark, pathWithHubs(256, hubs: _*).edges.toSeq)
      val e = intercept[IllegalArgumentException](QbS.build(spark, df, numLandmarks = hubs.size))
      assert(e.getMessage.contains("(255, 0) has distance 255"), e.getMessage)
      assert(e.getMessage.contains("one-byte label encoding"), e.getMessage)
      df.unpersist()
    }
  }

  test("QbS.build and QbS.query equal the reference on generated shapes and noisy input") {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(50), buildExact)
    assert(res.passed, Pretty.pretty(res))
  }

  /** Not a vertex of any generated shape: only a self-loop names it. */
  private val Lonely = -7L

  /** A generated shape (see [[QueryDifferentialSpec]]), its edges as noisy input with
    * reversed duplicates and self-loops (one of them on an id with no other edge), and
    * `|R|` as the case gives it.
    */
  private val noisyCases: Gen[(QueryDifferentialSpec.Case, Seq[(Long, Long)])] = for {
    c <- QueryDifferentialSpec.cases
    dups <- Gen.someOf(c.edges)
    loops <- Gen.someOf(c.edges.map(_._1).distinct)
    order <- Gen.long
  } yield (c, new Random(order).shuffle(
    c.edges ++ dups.map(_.swap) ++ (loops :+ Lonely).map(v => (v, v))))

  private lazy val buildExact: Prop = Prop.forAllNoShrink(noisyCases) { case (c, input) =>
    val g = LocalGraph(c.edges.toArray)
    val idx = QbS.build(spark, GraphOps.fromPairs(spark, input, partitions = 2),
      numLandmarks = c.landmarks.size)
    val (labels, metaEdges) = Fixtures.def42(g, idx.landmarks)
    val ids = g.vertices.toSeq ++ Seq(Lonely, Long.MaxValue)
    val bad = Seq.newBuilder[String]
    for (v <- g.vertices) {
      val want = labels.collect { case (`v`, r, d) => r -> d }.toMap
      if (idx.engine.labelsOf(v) != want) bad += s"L($v) = ${idx.engine.labelsOf(v)}, Def. 4.2 gives $want"
    }
    if (idx.meta.edges.toSet != metaEdges) bad += s"meta-edges ${idx.meta.edges}, Def. 4.2 gives $metaEdges"
    for (u <- ids; v <- ids) {
      val a = QbS.query(idx, u, v)
      if ((a.edges, a.distance) != ((g.spg(u, v), g.distance(u, v))))
        bad += s"SPG($u,$v): distance ${a.distance} vs ${g.distance(u, v)}, " +
          s"missing ${g.spg(u, v) -- a.edges}, extra ${a.edges -- g.spg(u, v)}"
    }
    idx.edges.unpersist()
    val out = bad.result()
    out.isEmpty :| s"${c.name}: ${out.size} mismatches, e.g. ${out.take(3).mkString("; ")}"
  }
}
