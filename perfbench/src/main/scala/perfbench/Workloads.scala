package perfbench

import repro.core.AdjGraph
import repro.graphgen.GraphGen

/** A benchmark workload: `graphs` graphs of one generator family, built
  * from public [[GraphGen]] calls, each decomposed at distance threshold
  * `h`. Graph i of a run with seed s is `build(s + i * SeedStride)`; the
  * default seed is that of the `repro.bench.Datasets` analog of the same
  * family. Metrics are medians over the graphs ([[Metric]]).
  *
  * `warmup` builds a smaller graph of the same family; it is decomposed
  * before timing starts so the JIT has compiled the hot loops.
  */
final case class Workload(name: String, h: Int, graphs: Int, defaultSeed: Long,
                          build: Long => AdjGraph, warmup: Long => AdjGraph) {
  def seeds(seed: Long): Seq[Long] = (0 until graphs).map(i => seed + i * Workloads.SeedStride)
}

object Workloads {
  val SeedStride = 1L << 20

  // Why each workload is here, and which metrics it is meant to move, is
  // recorded next to it in BENCHMARK.json and in README.md. Graph counts
  // are set so that ten seeds give a spread within the bounds: from seed
  // to seed, h-BFS visits of one graph vary by 10-20% (hub-social h-LB,
  // road h-LB+UB at 300x300), and h-LB+UB on community graphs has outliers
  // up to 1.7x the typical count; the median over several graphs varies
  // far less.
  val all: Seq[Workload] = Seq(
    Workload("dense-comm", h = 4, graphs = 7, defaultSeed = 5, // caHe family
             s => GraphGen.communities(15, 40, 0.35, 0.002, s),
             s => GraphGen.communities(8, 40, 0.35, 0.002, s)),
    Workload("hub-social", h = 3, graphs = 11, defaultSeed = 11, // sytb
             s => GraphGen.ba(4000, 10, 2, s),
             s => GraphGen.ba(1500, 10, 2, s)),
    Workload("road", h = 6, graphs = 9, defaultSeed = 10, // rnTX family
             s => GraphGen.gridRoad(150, 150, 0.75, s),
             s => GraphGen.gridRoad(80, 80, 0.75, s)),
    // Not in BENCHMARK.json: small enough for smoke.py to run in seconds.
    Workload("tiny", h = 3, graphs = 3, defaultSeed = 1,
             s => GraphGen.communities(4, 15, 0.4, 0.02, s),
             s => GraphGen.communities(4, 15, 0.4, 0.02, s)),
  )

  def apply(name: String): Option[Workload] = all.find(_.name == name)
}
