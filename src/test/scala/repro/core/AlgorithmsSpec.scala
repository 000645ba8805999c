package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** Cross-checks of every production algorithm against the naive reference on
  * canned and random graphs, for h in 1..5 — the core correctness suite.
  */
class AlgorithmsSpec extends AnyFunSuite {

  private val allAlgos: Seq[Algo] = Seq(
    Algo.HBZ, Algo.HLB, Algo.HLB1,
    Algo.HLBUB(Some(1)), Algo.HLBUB(Some(3)), Algo.HLBUB(None),
    Algo.HLBUBHDeg(Some(2)))

  private def checkAll(name: String, g: AdjGraph, hs: Seq[Int] = 1 to 5): Unit = {
    for (h <- hs) {
      val expected = NaiveCore.decompose(g, h).toSeq
      for (algo <- allAlgos) {
        val got = KHCore.decompose(g, h, algo)
        assert(got.core.toSeq == expected, s"$name h=$h algo=$algo")
      }
    }
  }

  test("empty graph")           { checkAll("empty", AdjGraph.empty(0), Seq(1, 2)) }
  test("isolated vertices")     { checkAll("isolated", AdjGraph.empty(5), Seq(1, 2, 3)) }
  test("single edge")           { checkAll("K2", GraphGen.clique(2)) }
  test("path of 10")            { checkAll("P10", GraphGen.path(10)) }
  test("cycle of 9")            { checkAll("C9", GraphGen.cycle(9)) }
  test("clique of 7")           { checkAll("K7", GraphGen.clique(7)) }
  test("star of 12")            { checkAll("S12", GraphGen.star(12)) }
  test("Petersen graph")        { checkAll("petersen", GraphGen.petersen) }
  test("two disjoint cliques")  {
    val edges = (for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)) ++
                (for (a <- 5 until 12; b <- a + 1 until 12) yield (a, b))
    checkAll("K5+K7", AdjGraph.fromEdges(12, edges))
  }
  test("clique with a pendant path") {
    val edges = (for (a <- 0 until 6; b <- a + 1 until 6) yield (a, b)) ++
                Seq((5, 6), (6, 7), (7, 8))
    checkAll("K6+path", AdjGraph.fromEdges(9, edges))
  }

  for (seed <- 1 to 8)
    test(s"random sparse ER graph, avg deg 2.5, seed $seed") {
      checkAll(s"er-sparse-$seed", GraphGen.randomConnected(35, 2.5, seed), 1 to 4)
    }

  for (seed <- 1 to 6)
    test(s"random denser ER graph, avg deg 5, seed $seed") {
      checkAll(s"er-dense-$seed", GraphGen.randomConnected(30, 5.0, seed), 1 to 4)
    }

  for (seed <- 1 to 5)
    test(s"random BA graph (hubs), seed $seed") {
      checkAll(s"ba-$seed", GraphGen.ba(35, 3, 2, seed), 1 to 4)
    }

  for (seed <- 1 to 5)
    test(s"random WS small world, seed $seed") {
      checkAll(s"ws-$seed", GraphGen.ws(30, 2, 0.2, seed), 1 to 4)
    }

  for (seed <- 1 to 3)
    test(s"grid road fragment, seed $seed") {
      checkAll(s"grid-$seed", GraphGen.gridRoad(6, 6, 0.85, seed), 1 to 5)
    }

  for (seed <- 1 to 5)
    test(s"disconnected random graph (no largest-component filter), seed $seed") {
      checkAll(s"er-disc-$seed", GraphGen.er(30, 25, seed), 1 to 3)
    }

  test("h=1 equals the classic core decomposition on the Figure-1 graph") {
    val g = GraphGen.figure1
    // classic BZ computed by simple degree peeling, independent of HBfs
    val degs = Array.tabulate(g.n)(g.degree)
    val alive = Array.fill(g.n)(true)
    val classic = new Array[Int](g.n)
    var k = 0
    for (_ <- 0 until g.n) {
      val v = (0 until g.n).filter(alive).minBy(degs)
      k = math.max(k, degs(v))
      classic(v) = k
      alive(v) = false
      g.adj(v).foreach(u => if (alive(u)) degs(u) -= 1)
    }
    val got = KHCore.decompose(g, 1, Algo.HLBUB(None))
    assert(got.core.toSeq == classic.toSeq)
  }

  test("multithreaded engine produces identical results to sequential") {
    val eng = new ThreadedEngine(200, threads = 8)
    try {
      for (seed <- 1 to 4; h <- 2 to 3) {
        val g = GraphGen.randomConnected(60, 4.0, 100 + seed)
        val seq = KHCore.decompose(g, h, Algo.HLBUB(None))
        for (algo <- Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLBUB(None))) {
          val par = KHCore.decompose(g, h, algo, engine = Some(eng))
          assert(par.core.toSeq == seq.core.toSeq, s"seed=$seed h=$h algo=$algo")
        }
      }
    } finally eng.shutdown()
  }

  test("wall-clock budget aborts a decomposition with BudgetExceeded") {
    val g = GraphGen.communities(4, 30, 0.4, 0.01, 5)
    intercept[BudgetExceeded] {
      KHCore.decompose(g, 4, Algo.HBZ, budget = new Budget(maxVisits = 2000))
    }
    // A worker thread's overrun surfaces as itself, not wrapped by the pool.
    val eng = new ThreadedEngine(g.n, threads = 4)
    try intercept[BudgetExceeded] {
      KHCore.decompose(g, 4, Algo.HBZ, engine = Some(eng), budget = new Budget(maxVisits = 2000))
    } finally eng.shutdown()
  }

  test("CoreResult helpers: maxCore, distinctCores, coreVertices, coreSizes") {
    val g = GraphGen.figure1
    val r = KHCore.decompose(g, 2)
    assert(r.maxCore == 6)
    assert(r.distinctCores == 3) // cores 4, 5, 6
    assert(r.coreVertices(6).length == 10)
    assert(r.coreVertices(5).length == 12)
    assert(r.coreVertices(4).length == 13)
    val sizes = KHCore.coreSizes(r.core)
    assert(sizes(0) == 13 && sizes(4) == 13 && sizes(5) == 12 && sizes(6) == 10)
    assert(KHCore.degeneracy(r.core) == 6)
    assert(KHCore.coreSizes(Array(0, 3, 3)).toSeq == Seq(3, 2, 2, 2))
  }

  test("h-LB+UB intervals run independently (Obs. 3): fresh state per interval") {
    for (seed <- 1 to 3; h <- 2 to 3; s <- Seq(Some(1), Some(4), None)) {
      val g = GraphGen.randomConnected(50, 3.0, 40 + seed)
      val eng = new SequentialEngine(g.n)
      val budget = Budget.unlimited()
      val plan = HLBUB.plan(g, h, eng, budget, s, useHDegAsUB = false)
      val merged = Array.fill(g.n)(-1)
      for ((kmin, kmax) <- plan.intervals) {
        val st = new HLBUB.State(g.n)
        HLBUB.runInterval(g, h, plan, kmin, kmax, st, eng, budget)
        for (v <- 0 until g.n if st.assigned(v)) {
          assert(merged(v) == -1, s"vertex $v assigned twice: seed=$seed h=$h s=$s")
          merged(v) = st.core(v)
        }
      }
      assert(merged.forall(_ >= 0), s"unassigned vertex: seed=$seed h=$h s=$s")
      assert(merged.toSeq == NaiveCore.decompose(g, h).toSeq, s"seed=$seed h=$h s=$s")
      assert(merged.toSeq == HLBUB.decompose(g, h, eng, s = s).core.toSeq,
             s"seed=$seed h=$h s=$s")
    }
  }

  test("pinned BFS counters: h-BZ, h-LB, h-LB+UB variants and UpperBound") {
    // (visits, bfsCount) of each algorithm, and of Bounds.upperBound alone.
    // Exact counters are deterministic, so any change to the peeling order
    // or to which neighbours get recomputed shows up here.
    val graphs = Seq(
      "communities" -> GraphGen.communities(4, 20, 0.3, 0.02, 7),
      "ba" -> GraphGen.ba(80, 3, 2, 5),
      "er" -> GraphGen.randomConnected(60, 3.0, 11))
    val algos = Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLB1, Algo.HLBUB(None), Algo.HLBUBHDeg(None))
    val expected: Map[(String, Int), (Seq[(Long, Long)], (Long, Long))] = Map(
      ("communities", 2) -> (Seq((28228L, 1217L), (10474L, 599L), (9836L, 519L),
                                 (25311L, 1154L), (25636L, 1297L)), (3691L, 160L)),
      ("communities", 3) -> (Seq((107338L, 2279L), (53023L, 1306L), (50483L, 1226L),
                                 (55463L, 1205L), (84282L, 2045L)), (7599L, 160L)),
      ("ba", 2) -> (Seq((28136L, 1037L), (3269L, 324L), (7218L, 357L),
                        (28230L, 1234L), (20300L, 1063L)), (3361L, 160L)),
      ("ba", 3) -> (Seq((134304L, 2742L), (38233L, 944L), (35977L, 864L),
                        (72846L, 1352L), (68839L, 1779L)), (8125L, 160L)),
      ("er", 2) -> (Seq((3924L, 400L), (1617L, 281L), (1701L, 240L),
                        (6720L, 757L), (6287L, 782L)), (1022L, 118L)),
      ("er", 3) -> (Seq((14989L, 722L), (7963L, 500L), (7349L, 444L),
                        (21745L, 1112L), (17277L, 1002L)), (2148L, 118L)))
    for ((name, g) <- graphs; h <- Seq(2, 3)) {
      val (algoCounts, ubCounts) = expected((name, h))
      for ((algo, want) <- algos.zip(algoCounts)) {
        val r = KHCore.decompose(g, h, algo)
        assert((r.visits, r.bfsCount) == want, s"$name h=$h algo=$algo")
      }
      val b = Budget.unlimited()
      Bounds.upperBound(g, h, new SequentialEngine(g.n), b)
      assert((b.visits, b.bfsCount) == ubCounts, s"$name h=$h UpperBound")
      // Alg. 5: n initial h-degrees plus one h-BFS per removal.
      assert(b.bfsCount == 2L * g.n, s"$name h=$h UpperBound BFS count")
    }
  }
}
