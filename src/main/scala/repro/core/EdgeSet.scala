package repro.core

import scala.collection.AbstractIterator
import scala.collection.immutable.AbstractSet

/** An immutable set of canonical edges `(a, b)`, `a < b`: the form in which the search
  * core returns an answer's edges. The edges sit in an open-addressing hash table of
  * id pairs (a slot with `a == b` is empty, which no edge can be), so building the set
  * makes no tuple per edge; a tuple is made only when the set is read. To its readers
  * it is an ordinary `Set[(Long, Long)]`: equality and hash code are by elements, and
  * adding or removing an edge gives a standard `Set`.
  */
final class EdgeSet private (lo: Array[Long], hi: Array[Long], override val size: Int)
    extends AbstractSet[(Long, Long)] with Serializable {

  override def knownSize: Int = size

  def contains(e: (Long, Long)): Boolean = e._1 < e._2 && {
    val i = EdgeSet.find(lo, hi, e._1, e._2)
    lo(i) != hi(i)
  }

  def iterator: Iterator[(Long, Long)] = new AbstractIterator[(Long, Long)] {
    private var i = skip(0)
    private def skip(from: Int): Int = {
      var j = from
      while (j < lo.length && lo(j) == hi(j)) j += 1
      j
    }
    def hasNext: Boolean = i < lo.length
    def next(): (Long, Long) = {
      if (!hasNext) Iterator.empty.next()
      val e = (lo(i), hi(i))
      i = skip(i + 1)
      e
    }
  }

  def incl(e: (Long, Long)): Set[(Long, Long)] = if (contains(e)) this else Set.from(this) + e
  def excl(e: (Long, Long)): Set[(Long, Long)] = if (contains(e)) Set.from(this) - e else this
}

object EdgeSet {

  /** The slot of edge `(a, b)` in the tables, or of the empty slot where it would go. */
  private def find(lo: Array[Long], hi: Array[Long], a: Long, b: Long): Int = {
    val mask = lo.length - 1
    val h = (a * 31 + b) * 0x9E3779B97F4A7C15L
    var i = (h ^ (h >>> 32)).toInt & mask
    while (lo(i) != hi(i) && (lo(i) != a || hi(i) != b)) i = (i + 1) & mask
    i
  }

  /** Collects edges in either orientation; self-loops are not edges. [[result]] hands
    * the table over, so a builder makes one set.
    */
  final class Builder {
    private var lo = new Array[Long](16)
    private var hi = new Array[Long](16)
    private var n = 0

    def add(x: Long, y: Long): Unit = {
      if (4 * (n + 1) > 3 * lo.length) grow()
      insert(math.min(x, y), math.max(x, y))
    }

    private def insert(a: Long, b: Long): Unit = {
      val i = find(lo, hi, a, b)
      if (lo(i) == hi(i)) { lo(i) = a; hi(i) = b; n += 1 }
    }

    private def grow(): Unit = {
      val (oldLo, oldHi) = (lo, hi)
      lo = new Array[Long](2 * oldLo.length); hi = new Array[Long](2 * oldHi.length); n = 0
      var i = 0
      while (i < oldLo.length) {
        if (oldLo(i) != oldHi(i)) insert(oldLo(i), oldHi(i))
        i += 1
      }
    }

    def result(): EdgeSet = new EdgeSet(lo, hi, n)
  }
}
