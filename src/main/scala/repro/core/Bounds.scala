package repro.core

/** Lower and upper bounds on the (k,h)-core index of a vertex (§4.2, §4.4).
  *
  *  - `LB1(v) = deg^{⌊h/2⌋}(v)`                       (Observation 1)
  *  - `LB2(v) = max{LB1(u) : d(u,v) ≤ ⌈h/2⌉} ∪ {LB1(v)}` (Observation 2)
  *  - `UB(v)`  = level at which v is removed by a BZ-style peeling that
  *    starts from the exact h-degrees and, on each removal, decrements by
  *    exactly 1 the h-neighbours found by an h-BFS over the *current*
  *    (not yet removed) subgraph (Algorithm 5). An upper bound because a
  *    real removal can drop an h-degree by more than 1. It is not the core
  *    decomposition of the power graph G^h: a vertex whose every short path
  *    to v ran through earlier removals is not decremented when v goes,
  *    though its initial h-degree counted v.
  *  - `hDegUB(v) = deg^h(v)` — the trivial upper bound Table 4/5 compares
  *    UB against.
  */
object Bounds {

  /** LB1 of every vertex: the ⌊h/2⌋-degree (zero when h = 1). */
  def lb1(g: AdjGraph, h: Int, engine: HDegEngine,
          budget: Budget = Budget.unlimited()): Array[Int] = {
    val r = h / 2
    if (r == 0) return new Array[Int](g.n)
    val alive = Array.fill(g.n)(true)
    engine.batchHDeg(g, alive, Array.range(0, g.n), r, budget)
  }

  /** LB2 of every vertex given precomputed LB1 values. */
  def lb2(g: AdjGraph, h: Int, lb1s: Array[Int], engine: HDegEngine,
          budget: Budget = Budget.unlimited()): Array[Int] = {
    val r = (h + 1) / 2
    val alive = Array.fill(g.n)(true)
    engine.batchNbrMax(g, alive, Array.range(0, g.n), r, lb1s, budget)
  }

  /** Both lower bounds in one call. */
  def lowerBounds(g: AdjGraph, h: Int, engine: HDegEngine,
                  budget: Budget = Budget.unlimited()): (Array[Int], Array[Int]) = {
    val l1 = lb1(g, h, engine, budget)
    (l1, lb2(g, h, l1, engine, budget))
  }

  /** Algorithm 5 (UpperBound): [[CoreDecomp.run]] with `recomputeBelow = 0`,
    * so every removal decrements each h-neighbour by exactly 1. Returns
    * per-vertex UB; charges all BFS work (n initial h-degrees + one h-BFS per
    * removal to re-discover the current h-neighbourhood) to `budget`.
    */
  def upperBound(g: AdjGraph, h: Int, engine: HDegEngine,
                 budget: Budget = Budget.unlimited()): Array[Int] =
    CoreDecomp.fromHDegrees(g, h, recomputeBelow = 0, engine, budget)

  /** The trivial upper bound: initial h-degree of every vertex. */
  def hDegUB(g: AdjGraph, h: Int, engine: HDegEngine,
             budget: Budget = Budget.unlimited()): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    engine.batchHDeg(g, alive, Array.range(0, g.n), h, budget)
  }
}
