package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.graph.LocalGraph
import scala.util.Random

/** Spark-free differential of the query side. On generated paths, cycles, trees,
  * cliques, stars and disconnected unions of up to about 30 vertices, with
  * `|R| ∈ {1, |V| - 1, |V|}` or any size in between, the engine is laid out from
  * brute-force Def.-4.2 labels and meta-edges; the search core's guided search
  * (non-landmark pairs) and Bi-BFS (every pair) must equal `LocalGraph.spg`/`distance`
  * for every ordered pair.
  */
class QueryDifferentialSpec extends AnyFunSuite {
  import QueryDifferentialSpec._

  test("guided search and Bi-BFS on the engine equal the reference on generated shapes") {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), exact)
    assert(res.passed, Pretty.pretty(res))
  }
}

object QueryDifferentialSpec {

  /** A graph on vertices `0 until n`, as canonical edges. */
  final case class Shape(name: String, n: Int, edges: Seq[(Long, Long)])

  /** A shape with its vertices renamed to scattered ids, and the landmarks. */
  final case class Case(name: String, edges: Seq[(Long, Long)], landmarks: Seq[Long])

  private def canon(a: Long, b: Long): (Long, Long) = (math.min(a, b), math.max(a, b))

  private def path(max: Int): Gen[Shape] = Gen.choose(2, max).map(n =>
    Shape(s"path($n)", n, (0 until n - 1).map(i => (i.toLong, i + 1L))))

  private def cycle(max: Int): Gen[Shape] = Gen.choose(3, max).map(n =>
    Shape(s"cycle($n)", n, (0 until n).map(i => canon(i, (i + 1) % n))))

  private def tree(max: Int): Gen[Shape] = for {
    n <- Gen.choose(2, max)
    parents <- Gen.sequence[Seq[Int], Int]((1 until n).map(i => Gen.choose(0, i - 1)))
  } yield Shape(s"tree($n)", n, parents.zipWithIndex.map { case (p, i) => (p.toLong, i + 1L) })

  private def clique(max: Int): Gen[Shape] = Gen.choose(2, max).map(n =>
    Shape(s"clique($n)", n, for (a <- 0 until n; b <- a + 1 until n) yield (a.toLong, b.toLong)))

  private def star(max: Int): Gen[Shape] = Gen.choose(2, max).map(n =>
    Shape(s"star($n)", n, (1 until n).map(i => (0L, i.toLong))))

  private def connected(max: Int): Gen[Shape] =
    Gen.oneOf(path(max), cycle(max), tree(max), clique(max), star(max))

  private val union: Gen[Shape] = for (a <- connected(15); b <- connected(15)) yield
    Shape(s"${a.name} + ${b.name}", a.n + b.n,
      a.edges ++ b.edges.map { case (x, y) => (x + a.n, y + a.n) })

  val cases: Gen[Case] = for {
    s <- Gen.oneOf(connected(30), union)
    // the edge cases, and any size: with one non-landmark or none there is no pair for
    // the guided search, and with one landmark no meta-edge, so Δ needs 1 < |R| < |V| - 1
    k <- Gen.oneOf(Gen.oneOf(1, s.n - 1, s.n), Gen.choose(1, s.n))
    seed <- Gen.long
  } yield {
    val rnd = new Random(seed)
    val ids = rnd.shuffle((0L until 4L * s.n).toVector).take(s.n)
    Case(s"${s.name}, |R| = $k", s.edges.map { case (a, b) => canon(ids(a.toInt), ids(b.toInt)) },
      rnd.shuffle(ids).take(k))
  }

  /** Mismatches of the search core against the reference on one case. */
  def mismatches(c: Case): Seq[String] = {
    val g = LocalGraph(c.edges.toArray)
    val (labels, metaEdges) = Fixtures.def42(g, c.landmarks)
    val engine = QueryEngine(c.landmarks, g.edges, labels.toArray, metaEdges.toSeq)
    val meta = new MetaGraph(c.landmarks, metaEdges.toSeq)
    val lmSet = c.landmarks.toSet
    for {
      u <- g.vertices.toSeq; v <- g.vertices.toSeq if u != v
      ref = (g.spg(u, v), g.distance(u, v))
      (method, res) <- Seq("Bi-BFS" -> Some(BiSearch.bibfs(engine.graph, u, v))) :+
        "guided" -> Option.when(!lmSet(u) && !lmSet(v))(BiSearch.guided(engine.sparsified,
          Sketch.compute(meta, u, v, engine.labelsOf(u), engine.labelsOf(v))))
      r <- res if (r.edges, r.distance) != ref
    } yield s"$method SPG($u,$v): distance ${r.distance} vs ${ref._2}, " +
      s"missing ${ref._1 -- r.edges}, extra ${r.edges -- ref._1}"
  }

  val exact: Prop = Prop.forAllNoShrink(cases) { c =>
    val bad = mismatches(c)
    bad.isEmpty :| s"${c.name}: ${bad.size} mismatches, e.g. ${bad.take(3).mkString("; ")}"
  }
}
