package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{BiSearch, GuidedSearch}

/** Search-based baseline (paper §6.1): bi-directional BFS on the FULL graph with no
  * sketch bounds, alternating sides by visited-set size, followed by the same reverse
  * search as QbS to emit all shortest-path edges.
  *
  * It is the no-sketch instance of QbS's search core ([[BiSearch.bibfs]]), so online
  * timings compare like for like on either substrate: `QueryEngine.graph` (the
  * driver-local arrays `QbS.query` uses) or cached symmetric edges as a DataFrame.
  */
object BiBfs {

  /** The search core's result; `usedRecover` is always false. */
  type Result = GuidedSearch.Result

  def spg(g: BiSearch.Graph, u: Long, v: Long): Result = BiSearch.bibfs(g, u, v)

  /** Bi-BFS over cached symmetric edges, one DataFrame join per level. */
  def spg(gSym: DataFrame, u: Long, v: Long): Result = spg(new GuidedSearch.Frames(gSym), u, v)
}
