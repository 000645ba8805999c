package repro.core

/** The bucket-peeling loop (Batagelj–Zaveršnik) behind every exact
  * algorithm and the UB bound: Alg. 1 (h-BZ), Alg. 3 (CoreDecomp, shared by
  * h-LB and h-LB+UB) and Alg. 5 (UpperBound) differ only in what a peel does
  * to the h-neighbours of the removed vertex. `recomputeBelow` selects it:
  * neighbours at distance `< recomputeBelow` get a fresh h-degree from one
  * engine batch, all others drop by 1.
  *  - `h + 1`: recompute every neighbour — Alg. 1 line 9 ([[HBZ]]);
  *  - `h`: recompute those at distance < h, decrement those at exactly h —
  *    Alg. 3 lines 14–17 ([[HLB]], [[HLBUB.runInterval]]). No surviving
  *    shortest path through the removed vertex can stay within distance h,
  *    so the decrement is exact;
  *  - `0`: decrement every neighbour — Alg. 5 ([[Bounds.upperBound]]).
  *
  * Caller contract:
  *  - `alive` masks the subgraph to peel (it is mutated);
  *  - every alive vertex is bucketed either at a *valid lower bound* of its
  *    core index, clamped to ≥ max(0, kmin-1), with `setLB = true` (`deg` is
  *    ignored while the flag is set; Alg. 3 lines 4–7 materialize it on first
  *    touch), or at its exact h-degree `deg(v)` with `setLB = false` — the
  *    seeding of Alg. 1 and Alg. 5, see [[fromHDegrees]];
  *  - alive vertices whose core index was assigned by an earlier interval
  *    must be bucketed at `core(v)` (> kmax), so they are never popped;
  *  - on return, every alive vertex whose core index lies in [kmin, kmax]
  *    has `core`/`assigned` set; vertices peeled below kmin are removed
  *    without assignment (their `setLB` is re-raised for later intervals).
  */
object CoreDecomp {

  def run(g: AdjGraph, h: Int, kmin: Int, kmax: Int,
          alive: Array[Boolean], buckets: Buckets,
          setLB: Array[Boolean], deg: Array[Int],
          core: Array[Int], assigned: Array[Boolean],
          engine: HDegEngine, budget: Budget,
          recomputeBelow: Int): Unit = {
    // Private to this loop: engines use their own scratchpads, and the
    // first-touch materialization below uses the count-only `bfs.degree`, so
    // the peel's h-neighbourhood stays valid in `bfs.nbrs`/`bfs.nbrDist`
    // until the next `bfs.run`.
    val bfs = new HBfs(g.n)
    val recompute = new Array[Int](g.n)
    var k = math.max(0, kmin - 1)
    while (k <= kmax) {
      var v = buckets.pop(k)
      while (v >= 0) {
        if (setLB(v)) {
          // Lines 4–7: first touch at this level — materialize the real
          // h-degree and re-bucket (clamped to the current level).
          val d = bfs.degree(g, alive, v, h, budget)
          deg(v) = d
          buckets.add(v, math.max(d, k))
          setLB(v) = false
        } else {
          // Lines 8–19: peel v.
          if (k >= kmin) { core(v) = k; assigned(v) = true }
          else setLB(v) = true // core < kmin: assigned by a later interval
          val cnt = bfs.run(g, alive, v, h, budget)
          alive(v) = false
          // Recomputations are batched so the §4.6 engine can parallelize.
          var nRec = 0
          var i = 0
          while (i < cnt) {
            val u = bfs.nbrs(i)
            if (!setLB(u)) {
              if (bfs.nbrDist(i) < recomputeBelow) { recompute(nRec) = u; nRec += 1 }
              else {
                deg(u) -= 1
                buckets.move(u, math.max(deg(u), k))
              }
            }
            i += 1
          }
          if (nRec > 0) {
            val batch = java.util.Arrays.copyOf(recompute, nRec)
            val newDegs = engine.batchHDeg(g, alive, batch, h, budget)
            var j = 0
            while (j < nRec) {
              val u = batch(j)
              deg(u) = newDegs(j)
              buckets.move(u, math.max(deg(u), k))
              j += 1
            }
          }
        }
        v = buckets.pop(k)
      }
      k += 1
    }
  }

  /** The whole-graph peel of Alg. 1 and Alg. 5: every vertex alive and
    * bucketed at its h-degree from one engine batch (Alg. 1 lines 1–3), then
    * [[run]] over the full range with the given `recomputeBelow`. Returns
    * the level at which each vertex was peeled.
    */
  def fromHDegrees(g: AdjGraph, h: Int, recomputeBelow: Int,
                   engine: HDegEngine, budget: Budget): Array[Int] = {
    val n = g.n
    val alive = Array.fill(n)(true)
    val deg = engine.batchHDeg(g, alive, Array.range(0, n), h, budget)
    val buckets = new Buckets(n, math.max(0, n - 1))
    var v = 0
    while (v < n) { buckets.add(v, deg(v)); v += 1 }
    val core = new Array[Int](n)
    run(g, h, kmin = 0, kmax = math.max(0, n - 1), alive, buckets,
        new Array[Boolean](n), deg, core, new Array[Boolean](n), engine, budget,
        recomputeBelow)
    core
  }
}
