package repro.core

/** Algorithm 4 (h-LB+UB) with Algorithm 6 (ImproveLB).
  *
  * The per-vertex upper bound UB (Alg. 5) splits the core-index range into
  * intervals covering `S` contiguous distinct UB values; by Observation 3,
  * all (k,h)-cores with k ≥ i live inside V[i] = {v : UB(v) ≥ i}, so each
  * interval [kmin,kmax] is a totally independent sub-computation on
  * G[V[kmin]], visited **top-down** so the expensive high-core vertices are
  * peeled early and never touched again.
  *
  * Before peeling an interval, [[improveLB]] (Alg. 6) prunes V[kmin] of
  * vertices that provably cannot reach core kmin (power-graph-style
  * cascading decrements) and tightens every survivor's lower bound to LB3
  * via Property 3 (`min h-degree within any V' lower-bounds every core
  * index in V'`).
  *
  * The pipeline is split so that intervals can run anywhere: [[plan]] is
  * Alg. 4 lines 3–11 and [[runInterval]] is lines 12–18 for one interval.
  * [[decompose]] runs the intervals top-down over one shared [[State]];
  * a caller that gives each interval a fresh [[State]] gets the
  * independent sub-computations of §4.6 option 1.
  */
object HLBUB {

  /** Per-vertex state that [[runInterval]] reads and updates. Shared across
    * intervals, it carries the assignments of higher intervals down, so
    * those vertices are bucketed at their known core and never re-peeled.
    */
  final class State(n: Int) {
    val core: Array[Int] = Array.fill(n)(-1)
    val assigned = new Array[Boolean](n)
    val lb3 = new Array[Int](n)
    val setLB = new Array[Boolean](n)
    val deg = new Array[Int](n)
  }

  /** Bounds and top-down intervals of Alg. 4 lines 3–11. */
  final case class Plan(lb2: Array[Int], ub: Array[Int], intervals: Seq[(Int, Int)])

  /** Partition the (descending, distinct) UB values into intervals covering
    * `S` contiguous values each, exactly as Alg. 4 line 11 / Example 4:
    * kmax_i = U(i·S), kmin_i = U(min((i+1)·S, |U|−1)) + 1, where U already
    * has `min LB2 − 1` appended as its last element.
    */
  def intervals(uDesc: Array[Int], s: Int): Seq[(Int, Int)] = {
    require(s >= 1, "partition size S must be >= 1")
    val out = Seq.newBuilder[(Int, Int)]
    var idx = 0
    while (idx < uDesc.length - 1) {
      val nextIdx = math.min(idx + s, uDesc.length - 1)
      out += ((uDesc(nextIdx) + 1, uDesc(idx)))
      idx = nextIdx
    }
    out.result()
  }

  /** Alg. 4 lines 3–11: LB1, LB2 and UB (initial h-degrees are part of UB's
    * computation), then the intervals over the descending UB values.
    *
    * @param s       interval width in distinct UB values; None ⇒ adaptive
    *                (≈ 12 intervals)
    * @param useHDegAsUB Table 5 ablation: replace Alg. 5's UB with the
    *                trivial h-degree upper bound
    */
  def plan(g: AdjGraph, h: Int, engine: HDegEngine, budget: Budget,
           s: Option[Int], useHDegAsUB: Boolean): Plan = {
    val l1 = Bounds.lb1(g, h, engine, budget)
    val lb2 = Bounds.lb2(g, h, l1, engine, budget)
    val ub =
      if (useHDegAsUB) Bounds.hDegUB(g, h, engine, budget)
      else Bounds.upperBound(g, h, engine, budget)
    val uDesc = (ub.distinct :+ (lb2.min - 1)).distinct.sortBy(-_)
    val sVal = s.getOrElse(math.max(1, math.ceil((uDesc.length - 1) / 12.0).toInt))
    Plan(lb2, ub, intervals(uDesc, sVal))
  }

  /** Alg. 4 lines 12–18 for one interval of `p`: on return every vertex
    * whose core index lies in [kmin, kmax] has `st.core`/`st.assigned` set.
    */
  def runInterval(g: AdjGraph, h: Int, p: Plan, kmin: Int, kmax: Int,
                  st: State, engine: HDegEngine, budget: Budget): Unit = {
    val n = g.n
    // Line 12: V[kmin] = {v : UB(v) >= kmin}.
    val alive = new Array[Boolean](n)
    var size = 0
    var v = 0
    while (v < n) {
      if (p.ub(v) >= kmin) { alive(v) = true; size += 1 }
      v += 1
    }
    val verts = new Array[Int](size)
    size = 0
    v = 0
    while (v < n) {
      if (alive(v)) { verts(size) = v; size += 1 }
      v += 1
    }
    // Lines 13–14: clean + tighten (Alg. 6).
    improveLB(g, h, kmin, alive, verts, p.lb2, st, engine, budget)
    // Lines 15–17: bucket survivors at their best-known floor.
    val buckets = new Buckets(n, math.max(0, n - 1))
    val floor = math.max(0, kmin - 1)
    v = 0
    while (v < n) {
      if (alive(v)) {
        buckets.add(v, math.max(math.max(st.core(v), st.lb3(v)), floor))
        st.setLB(v) = true
      }
      v += 1
    }
    // Line 18.
    CoreDecomp.run(g, h, kmin, kmax, alive, buckets, st.setLB, st.deg,
                   st.core, st.assigned, engine, budget, recomputeBelow = h)
  }

  /** Algorithm 6. Mutates `alive` (removing pruned vertices) and `st.lb3`
    * (monotone max with the Property-3 bound). The survivors' upper-bounded
    * h-degrees are left in `st.deg`, which CoreDecomp overwrites before use
    * because every survivor is seeded with `setLB = true`.
    */
  private def improveLB(g: AdjGraph, h: Int, kmin: Int,
                        alive: Array[Boolean], verts: Array[Int],
                        lb2: Array[Int], st: State,
                        engine: HDegEngine, budget: Budget): Unit = {
    if (verts.isEmpty) return
    val degs = engine.batchHDeg(g, alive, verts, h, budget)
    val deg = st.deg
    val lb3 = st.lb3
    var minDeg = Int.MaxValue
    var i = 0
    while (i < verts.length) {
      deg(verts(i)) = degs(i)
      if (degs(i) < minDeg) minDeg = degs(i)
      i += 1
    }
    // LB3 via Property 3: min h-degree within V[k] bounds every core in it.
    i = 0
    while (i < verts.length) {
      val v = verts(i)
      val cand = math.max(lb2(v), minDeg)
      if (cand > lb3(v)) lb3(v) = cand
      i += 1
    }
    // Cascading clean-up: upper-bounded h-degrees (decrement-by-1) below
    // kmin can never reach core kmin inside this interval. A FIFO over
    // `verts`: each vertex enters once, at the start if its degree is below
    // kmin or when a decrement takes it from kmin to kmin - 1.
    val bfs = new HBfs(g.n)
    val queue = new Array[Int](verts.length)
    var tail = 0
    i = 0
    while (i < verts.length) {
      val v = verts(i)
      if (deg(v) < kmin) { queue(tail) = v; tail += 1 }
      i += 1
    }
    var head = 0
    while (head < tail) {
      val v = queue(head); head += 1
      alive(v) = false
      val cnt = bfs.run(g, alive, v, h, budget)
      var j = 0
      while (j < cnt) {
        val u = bfs.nbrs(j)
        deg(u) -= 1
        if (deg(u) == kmin - 1) { queue(tail) = u; tail += 1 }
        j += 1
      }
    }
  }

  /** Full h-LB+UB decomposition: [[plan]], then every interval top-down
    * over one shared [[State]].
    *
    * @param s       interval width in distinct UB values; None ⇒ adaptive
    *                (≈ 12 intervals), the default used by the benches
    * @param useHDegAsUB Table 5 ablation: replace Alg. 5's UB with the
    *                trivial h-degree upper bound
    */
  def decompose(g: AdjGraph, h: Int,
                engine: HDegEngine,
                budget: Budget = Budget.unlimited(),
                s: Option[Int] = None,
                useHDegAsUB: Boolean = false): CoreResult = {
    require(h >= 1, "h must be >= 1")
    val t0 = System.nanoTime()
    if (g.n == 0) return CoreResult(Array.empty, 0, 0, 0)
    val p = plan(g, h, engine, budget, s, useHDegAsUB)
    val st = new State(g.n)
    for ((kmin, kmax) <- p.intervals)
      runInterval(g, h, p, kmin, kmax, st, engine, budget)
    CoreResult(st.core, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
