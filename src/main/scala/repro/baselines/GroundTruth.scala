package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{Bfs, GraphOps}

/** Reference shortest-path-graph computation: two full BFSs (GraphX) and the
  * edge filter `d(u,a) + 1 + d(b,v) = d(u,v)`. Exact by construction; used as the
  * in-Spark oracle for QbS and the baselines.
  */
object GroundTruth {

  final case class Result(edges: Set[(Long, Long)], distance: Option[Int])

  def spg(canonicalEdges: DataFrame, u: Long, v: Long): Result = {
    if (u == v) return Result(Set.empty, Some(0))
    val spark = canonicalEdges.sparkSession
    val dd = Bfs.distancesFrom(spark, canonicalEdges, Seq(u, v)).cache()
    try {
      val du = dd.filter(col("src") === u).select(col("v") as "x", col("dist") as "du")
      val dv = dd.filter(col("src") === v).select(col("v") as "y", col("dist") as "dv")
      val dRow = du.filter(col("x") === v).collect()
      if (dRow.isEmpty) return Result(Set.empty, None)
      val d = dRow(0).getInt(1)
      val sym = GraphOps.symmetric(canonicalEdges)
      val edges = sym
        .join(du, col("src") === col("x"))
        .join(dv, col("dst") === col("y"))
        .filter(col("du") + 1 + col("dv") === d)
        .select(least(col("src"), col("dst")) as "a",
                greatest(col("src"), col("dst")) as "b")
        .distinct()
        .collect()
        .map(r => (r.getLong(0), r.getLong(1)))
        .toSet
      Result(edges, Some(d))
    } finally dd.unpersist(blocking = false)
  }
}
