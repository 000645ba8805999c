package repro.core

/** Algorithm 1 (h-BZ): the distance-generalized Batagelj–Zaveršnik baseline.
  *
  * Vertices are bucketed by h-degree; buckets are drained in increasing
  * order. When vertex `v` is peeled at level `k`, its core index is `k` and
  * the h-degree of every vertex in its h-neighborhood is *recomputed from
  * scratch* (one h-BFS each) — the cost the later algorithms attack. That is
  * [[CoreDecomp.run]] with `recomputeBelow = h + 1`.
  */
object HBZ {

  def decompose(g: AdjGraph, h: Int,
                engine: HDegEngine,
                budget: Budget = Budget.unlimited()): CoreResult = {
    require(h >= 1, "h must be >= 1")
    val t0 = System.nanoTime()
    val core = CoreDecomp.fromHDegrees(g, h, recomputeBelow = h + 1, engine, budget)
    CoreResult(core, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
