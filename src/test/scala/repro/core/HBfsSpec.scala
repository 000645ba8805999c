package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen
import scala.util.Random

class HBfsSpec extends AnyFunSuite {

  private def naiveHDeg(g: AdjGraph, alive: Array[Boolean], v: Int, h: Int): Int = {
    // reference: full BFS on the alive-induced subgraph
    val (sub, ids) = g.induced(alive.clone match { case a => a(v) = true; a })
    val newV = ids.indexOf(v)
    sub.bfsDistances(newV).count(d => d >= 1 && d <= h)
  }

  test("h-degree on a path for growing h") {
    val g = GraphGen.path(7)
    val alive = Array.fill(7)(true)
    val bfs = new HBfs(7)
    val budget = Budget.unlimited()
    assert(bfs.run(g, alive, 0, 1, budget) == 1)
    assert(bfs.run(g, alive, 0, 3, budget) == 3)
    assert(bfs.run(g, alive, 3, 2, budget) == 4)
    assert(bfs.run(g, alive, 3, 100, budget) == 6)
  }

  test("neighborhood distances are correct") {
    val g = GraphGen.cycle(8)
    val bfs = new HBfs(8)
    val cnt = bfs.run(g, Array.fill(8)(true), 0, 2, Budget.unlimited())
    val got = (0 until cnt).map(i => bfs.nbrs(i) -> bfs.nbrDist(i)).toMap
    assert(got == Map(1 -> 1, 7 -> 1, 2 -> 2, 6 -> 2))
  }

  test("dead vertices are not traversed nor counted") {
    val g = GraphGen.path(5) // 0-1-2-3-4
    val alive = Array(true, false, true, true, true)
    val bfs = new HBfs(5)
    // with 1 dead, 0 is cut off from the rest
    assert(bfs.run(g, alive, 0, 4, Budget.unlimited()) == 0)
    assert(bfs.run(g, alive, 2, 4, Budget.unlimited()) == 2)
  }

  test("the source is traversed even when flagged dead (peeling contract)") {
    val g = GraphGen.path(3)
    val alive = Array(true, false, true)
    val bfs = new HBfs(3)
    assert(bfs.run(g, alive, 1, 1, Budget.unlimited()) == 2)
  }

  test("visit accounting: one visit per enqueued vertex") {
    val g = GraphGen.star(5)
    val budget = Budget.unlimited()
    val bfs = new HBfs(5)
    bfs.run(g, Array.fill(5)(true), 0, 1, budget)
    assert(budget.visits == 5) // source + 4 leaves
    assert(budget.bfsCount == 1)
  }

  test("budget exceeded raises BudgetExceeded") {
    val g = GraphGen.clique(20)
    val budget = new Budget(maxVisits = 10)
    val bfs = new HBfs(20)
    intercept[BudgetExceeded] { bfs.run(g, Array.fill(20)(true), 0, 1, budget) }
    val fresh = new Budget(maxVisits = 10)
    intercept[BudgetExceeded] { bfs.degree(g, Array.fill(20)(true), 0, 1, fresh) }
  }

  test("h-degree matches induced-subgraph BFS on random graphs and masks") {
    val rnd = new Random(7)
    for (trial <- 1 to 20) {
      val g = GraphGen.randomConnected(40, 2.5, trial)
      val alive = Array.fill(g.n)(rnd.nextDouble() > 0.25)
      // engines size their scratchpads for the largest graph they serve
      val bfs = new HBfs(if (trial % 2 == 0) g.n else 2 * g.n)
      // dead sources too: the peel and ImproveLB search from removed vertices
      for (h <- 1 to 4; v <- 0 until g.n) {
        val (byRun, byDegree) = (Budget.unlimited(), Budget.unlimited())
        val d = bfs.degree(g, alive, v, h, byDegree)
        val where = s"trial=$trial v=$v h=$h alive=${alive(v)}"
        assert(d == bfs.run(g, alive, v, h, byRun), where)
        assert(d == naiveHDeg(g, alive, v, h), where)
        assert(byDegree.visits == byRun.visits && byDegree.bfsCount == byRun.bfsCount, where)
      }
    }
  }

  test("degree leaves the neighbourhood of the previous run readable") {
    val g = GraphGen.randomConnected(40, 2.5, 3)
    val alive = Array.fill(g.n)(true)
    val bfs = new HBfs(g.n)
    val cnt = bfs.run(g, alive, 0, 2, Budget.unlimited())
    val before = (bfs.nbrs.take(cnt).toSeq, bfs.nbrDist.take(cnt).toSeq)
    for (u <- 1 until g.n) bfs.degree(g, alive, u, 3, Budget.unlimited())
    assert(bfs.nbrCount == cnt)
    assert((bfs.nbrs.take(cnt).toSeq, bfs.nbrDist.take(cnt).toSeq) == before)
    assert(bfs.nbrs.take(cnt).toSet == HBfs.hNeighborhood(g, alive, 0, 2).toSet)
  }

  test("allHDegrees helper matches per-vertex runs") {
    val g = GraphGen.petersen
    val all = HBfs.allHDegrees(g, 2)
    assert(all.toSeq == Seq.fill(10)(9)) // Petersen has diameter 2
  }

  test("hNeighborhood helper returns the right vertex set") {
    val g = GraphGen.path(6)
    val nb = HBfs.hNeighborhood(g, Array.fill(6)(true), 2, 2)
    assert(nb.toSet == Set(0, 1, 3, 4))
  }
}
