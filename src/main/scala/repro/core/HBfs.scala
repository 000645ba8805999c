package repro.core

/** Reusable scratchpad for h-bounded BFS over the alive-masked graph.
  *
  * One instance per thread (the arrays are mutable state); allocation-free
  * across calls via the token-stamped `seen` array. Two entry points share
  * one level-synchronous search, so a vertex's distance is the level it was
  * found on:
  *   - [[run]] records the neighbourhood. After it, `nbrCount` is the
  *     h-degree of the source, `nbrs(0 until nbrCount)` are the
  *     h-neighbours in BFS order, and `nbrDist(i)` is the shortest-path
  *     distance of `nbrs(i)` (≤ h). Used where the neighbourhood is read: the
  *     peel of [[CoreDecomp]], ImproveLB's cascade, LB2, and the reference
  *     paths ([[NaiveCore]], [[HBfs.allHDegrees]], [[HBfs.hNeighborhood]]).
  *   - [[degree]] only counts. It leaves `nbrs`, `nbrDist` and `nbrCount`
  *     untouched, so a neighbourhood from an earlier `run` stays readable.
  *     Used for every engine batch ([[HDegEngine.batchHDeg]]) and for
  *     [[CoreDecomp]]'s first-touch materialization.
  *
  * Every vertex enqueued (including the source) counts as one "visit" for
  * the Table 3 point-to-point distance metric; both entry points charge the
  * same visits and one BFS to the budget.
  */
final class HBfs(n: Int) {
  private val seen = new Array[Int](n)
  private val queue = new Array[Int](n)
  private var token = 0

  val nbrs = new Array[Int](n)
  val nbrDist = new Array[Int](n)
  var nbrCount = 0

  /** h-BFS from `src` restricted to `alive` vertices; `src` is traversed
    * regardless of its own alive flag (callers peel the source after
    * collecting its neighborhood). Returns the h-degree and records the
    * neighbourhood. Accounts visits against `budget` and honors its limits.
    */
  def run(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget): Int = {
    nbrCount = search(g, alive, src, h, budget, nbrs, nbrDist)
    nbrCount
  }

  /** The h-degree [[run]] would return, with the same visits charged, but
    * without recording the neighbourhood. */
  def degree(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget): Int =
    search(g, alive, src, h, budget, queue, null)

  /** Level-synchronous h-BFS that appends the h-neighbours of `src` to
    * `found` in BFS order and returns their number; `found` is also the
    * queue. When `dist` is non-null, each level's entries get their
    * distance there. */
  private def search(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget,
                     found: Array[Int], dist: Array[Int]): Int = {
    token += 1
    val tk = token
    seen(src) = tk
    var head = -1 // -1 stands for `src`, which is not in `found`
    var tail = 0
    var d = 1
    while (d <= h && head < tail) {
      val levelEnd = tail
      while (head < levelEnd) {
        val a = g.adj(if (head < 0) src else found(head))
        head += 1
        var i = 0
        while (i < a.length) {
          val w = a(i)
          if (alive(w) && seen(w) != tk) {
            seen(w) = tk
            found(tail) = w; tail += 1
          }
          i += 1
        }
      }
      if (dist ne null) java.util.Arrays.fill(dist, levelEnd, tail, d)
      d += 1
    }
    budget.addVisits(tail + 1L)
    budget.check()
    tail
  }
}

object HBfs {
  /** Convenience: one-shot h-degree of every vertex of `g` (all alive). */
  def allHDegrees(g: AdjGraph, h: Int): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    Array.tabulate(g.n)(v => bfs.run(g, alive, v, h, budget))
  }

  /** Convenience: h-neighborhood (vertex ids) of `src` among `alive`. */
  def hNeighborhood(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int): Array[Int] = {
    val bfs = new HBfs(g.n)
    val cnt = bfs.run(g, alive, src, h, Budget.unlimited())
    bfs.nbrs.take(cnt)
  }
}
