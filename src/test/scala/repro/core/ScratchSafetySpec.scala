package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}
import repro.{Fixtures, SparkSpec}
import repro.graph.{GraphOps, LocalGraph}
import scala.util.Random

/** The search core reuses mutable scratch: one per thread on the query engine. Answers
  * must not depend on which thread asks, on other threads asking at the same time, or
  * on what the thread's previous queries left in its scratch.
  */
class ScratchSafetySpec extends SparkSpec {

  private def build(local: LocalGraph, numLandmarks: Int): QbS.Index =
    QbS.build(spark, GraphOps.materialize(GraphOps.fromPairs(spark, local.edges.toSeq)),
      numLandmarks)

  /** `QbS.query` on a fresh thread, so on a scratch no earlier query touched. */
  private def onFreshThread(index: QbS.Index, u: Long, v: Long): QbS.Answer = {
    var a: QbS.Answer = null
    val t = new Thread(() => a = QbS.query(index, u, v))
    t.start(); t.join()
    a.copy(millis = 0)
  }

  for ((name, local, numLandmarks) <- Seq(("fig4", Fixtures.fig4Local, 3),
                                          ("random graph seed=6", Fixtures.randomLocal(60, 2, 6L), 5))) {
    test(s"$name: 4 threads on one index match the reference") {
      val index = build(local, numLandmarks)
      val vs = local.vertices.toSeq
      val pairs = for (u <- vs; v <- vs) yield (u, v)
      val ref = pairs.map { case (u, v) =>
        (if (u == v) Set.empty[(Long, Long)] else local.spg(u, v),
          if (u == v) Some(0) else local.distance(u, v))
      }
      val pool = Executors.newFixedThreadPool(4)
      try {
        val jobs = (1 to 4).map { t =>
          pool.submit(new Callable[Seq[String]] {
            def call(): Seq[String] = {
              // each thread walks the pairs twice, in its own order
              val order = new Random(t).shuffle(pairs.indices.toVector ++ pairs.indices)
              order.flatMap { i =>
                val (u, v) = pairs(i)
                val a = QbS.query(index, u, v)
                Option.when((a.edges, a.distance) != ref(i))(
                  s"thread $t SPG($u,$v): distance ${a.distance} vs ${ref(i)._2}")
              }
            }
          })
        }
        val bad = jobs.flatMap(_.get(5, TimeUnit.MINUTES))
        assert(bad.isEmpty, s"${bad.size} wrong answers, e.g. ${bad.take(3).mkString("; ")}")
      } finally pool.shutdown()
      index.edges.unpersist()
    }
  }

  test("one thread: odd pairs between ordinary ones leave no dirty scratch") {
    // Figure 4 plus a path 100 - 101 - 102 that no landmark reaches
    val local = LocalGraph((Fixtures.fig4Edges ++ Seq((100L, 101L), (101L, 102L))).toArray)
    val index = build(local, 3)
    assert(index.landmarks.toSet === Fixtures.fig4Landmarks.toSet)
    val ordinary = Seq((6L, 11L), (5L, 12L), (4L, 10L), (100L, 102L), (7L, 13L), (8L, 14L))
    val odd = Seq(
      (6L, 101L),  // disconnected: the guided search exhausts 6's component of G⁻
      (6L, 999L),  // an id that is not a vertex
      (1L, 11L),   // a landmark endpoint: Bi-BFS on G
      (2L, 100L))  // a landmark endpoint, disconnected
    val fresh = (ordinary ++ odd).map { case (u, v) => (u, v) -> onFreshThread(index, u, v) }.toMap
    val sequence = ordinary.zip(odd ++ odd.take(2)).flatMap { case (p, q) => Seq(p, q) } ++ ordinary
    for ((u, v) <- sequence) {
      val a = QbS.query(index, u, v).copy(millis = 0)
      assert(a === fresh((u, v)), s"SPG($u,$v) after earlier queries on this thread")
      val (edges, distance) =
        if (local.vertices.contains(v)) (local.spg(u, v), local.distance(u, v)) else (Set.empty, None)
      assert(a.edges === edges && a.distance === distance, s"SPG($u,$v)")
    }
    // Bi-BFS on G straight through the engine, across the same interleaving
    for ((u, v) <- sequence if local.vertices.contains(v)) {
      val r = BiSearch.bibfs(index.engine.graph, u, v)
      assert(r.edges === local.spg(u, v) && r.distance === local.distance(u, v), s"Bi-BFS SPG($u,$v)")
    }
    index.edges.unpersist()
  }
}
