package qbsbench

import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Uniform random query pairs over all vertices, never repeating within a run:
  * `used` is shared by every stream of the run.
  */
class PairStream(vertices: Array[Long], seed: Long, used: mutable.Set[(Long, Long)]) {
  protected val rnd = new Random(seed)

  protected def draw(): (Long, Long) = {
    var p = (0L, 0L)
    do {
      val a = vertices(rnd.nextInt(vertices.length))
      val b = vertices(rnd.nextInt(vertices.length))
      p = (math.min(a, b), math.max(a, b))
    } while (p._1 == p._2 || used.contains(p))
    p
  }

  def next(): (Long, Long) = {
    val p = draw()
    used += p
    p
  }
}

/** Uniform pairs, stratified by hop distance.
  *
  * A query's cost grows with the distance between its endpoints (README.md has the
  * measurements). A window holds only a few dozen queries, so the mix of distances
  * it happens to draw would move its median by more than a real regression does.
  * Here the i-th pair's distance class follows the classes' shares among all pairs,
  * so every run, and every prefix of a run, holds the same mix. Within a class,
  * pairs stay uniform: candidates are drawn uniformly and kept only if they fall in
  * the class.
  */
final class StratifiedPairs(local: LocalGraph, seed: Long, used: mutable.Set[(Long, Long)])
    extends PairStream(local.vertices, seed, used) {
  import StratifiedPairs._

  private val hops = new Hops(local)

  /** Share of each class among all pairs, from the BFS trees of a fixed set of pilot
    * sources; the same for every seed.
    */
  val shares: IndexedSeq[Double] = {
    val pilot = new Random(PilotSeed)
    val counts = new Array[Long](Classes)
    for (_ <- 1 to PilotSources) {
      val d = hops.from(local.vertices(pilot.nextInt(local.vertices.length)))
      d.foreach(x => if (x > 0) counts(classOf(x)) += 1)
    }
    counts.map(_.toDouble / counts.sum).toIndexedSeq
  }

  private val drawn = new Array[Int](Classes)

  /** The class most behind its share after `drawn.sum + 1` pairs. */
  private def nextClass(): Int = {
    val n = drawn.sum + 1
    (0 until Classes).maxBy(c => (shares(c) * n - drawn(c), -c))
  }

  override def next(): (Long, Long) = {
    val c = nextClass()
    var p = draw()
    var k = classOf(hops.between(p._1, p._2))
    var tries = 1
    while (k != c && tries < MaxTries) {
      p = draw()
      k = classOf(hops.between(p._1, p._2))
      tries += 1
    }
    drawn(k) += 1
    used += p
    p
  }

  /** Pairs drawn per class so far, shortest class first. */
  def classCounts: Seq[Int] = drawn.toSeq
}

object StratifiedPairs {
  /** Classes: distance ≤ 2, 3, 4, 5, ≥ 6 (and unreachable). */
  val Classes = 5
  def classOf(d: Int): Int = if (d < 0) Classes - 1 else math.min(math.max(d, 2), 6) - 2
  private val PilotSeed = 20210620L
  private val PilotSources = 64
  private val MaxTries = 100000
}

/** Hop distances by BFS over compressed adjacency arrays of `local`. */
final class Hops(local: LocalGraph) {
  private val ids = local.vertices
  private val index: Map[Long, Int] = ids.zipWithIndex.toMap
  private val offsets = ids.scanLeft(0)((o, v) => o + local.degree(v))
  private val targets = ids.flatMap(v => local.neighbors(v).map(index))

  /** Distance from `u` to every vertex, in `local.vertices` order; -1 if unreachable. */
  def from(u: Long): Array[Int] = {
    val dist = Array.fill(ids.length)(-1)
    val queue = new Array[Int](ids.length)
    val s = index(u)
    dist(s) = 0
    queue(0) = s
    var head = 0
    var tail = 1
    while (head < tail) {
      val x = queue(head); head += 1
      var i = offsets(x)
      while (i < offsets(x + 1)) {
        val y = targets(i)
        if (dist(y) < 0) { dist(y) = dist(x) + 1; queue(tail) = y; tail += 1 }
        i += 1
      }
    }
    dist
  }

  def between(u: Long, v: Long): Int = from(u)(index(v))
}
