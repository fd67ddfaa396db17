package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.util.Random

/** Table-1 statistics of a graph (computed with DataFrame aggregations plus a
  * sampled GraphX multi-source BFS for the average distance).
  */
object GraphStats {

  /** One row of the paper's Table 1. `bytes` follows the paper's convention: each
    * undirected edge appears in both adjacency lists at 8 bytes per entry.
    */
  final case class Stats(numV: Long, numE: Long,
                         maxDeg: Long, avgDeg: Double, avgDist: Double, bytes: Long)

  /** Compute stats for a canonical edge list.
    *
    * @param distSamplePairs number of random vertex pairs for the avg-distance
    *                        estimate (the paper samples 10,000; scale to graph size).
    * @param distSources     number of BFS sources the sampled pairs are drawn from
    *                        (one multi-source Pregel run total).
    */
  def compute(canonicalEdges: DataFrame, seed: Long = 7L,
              distSources: Int = 8, distSamplePairs: Int = 400): Stats = {
    val spark = canonicalEdges.sparkSession
    val numE = canonicalEdges.count()
    val degs = GraphOps.degrees(canonicalEdges)
      .agg(count(lit(1)) as "nv", max(col("degree")) as "maxd", avg(col("degree")) as "avgd")
      .collect()(0)
    val numV = degs.getLong(0)
    val maxDeg = degs.getLong(1)
    val avgDeg = degs.getDouble(2)

    val rnd = new Random(seed)
    val verts = GraphOps.vertices(canonicalEdges).collect().map(_.getLong(0))
    val sources = rnd.shuffle(verts.toSeq).take(math.min(distSources, verts.length))
    val dmaps = Bfs.distanceMaps(spark, canonicalEdges, sources)
    val dists = (1 to distSamplePairs).flatMap { _ =>
      val s = sources(rnd.nextInt(sources.length))
      val t = verts(rnd.nextInt(verts.length))
      if (s == t) None else dmaps(s).get(t)
    }
    val avgDist = if (dists.isEmpty) 0.0 else dists.sum.toDouble / dists.size

    Stats(numV, numE, maxDeg, avgDeg, avgDist, numE * 2 * 8)
  }
}
