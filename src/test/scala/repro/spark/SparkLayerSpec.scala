package repro.spark

import repro.SparkSpec
import repro.core.KHCore
import repro.graphgen.GraphGen

/** Spark-side correctness of [[GraphDF]]: the edge DataFrames round-trip
  * to the same graph, and its Spark SQL degree, stats and core-size queries
  * agree with DuckDB (`repro.Oracle`) and with direct computation.
  */
class SparkLayerSpec extends SparkSpec {

  test("edge DataFrame round-trips to the same graph") {
    val g = GraphGen.ba(60, 3, 2, 5)
    val df = GraphDF.edgesDF(spark, g)
    val back = GraphDF.fromEdgesDF(df, g.n)
    assert(back.edges.toSeq == g.edges.toSeq)
  }

  test("Spark SQL degree histogram matches DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.communities(3, 20, 0.3, 0.02, 9)
    val edges = GraphDF.symmetricEdgesDF(spark, g)
    val sparkDf = edges.groupBy(col("src").as("vertex"))
      .agg(count(lit(1)).as("degree"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      "SELECT src AS vertex, count(*) AS degree FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("Spark SQL aggregate degree stats match DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.er(50, 120, 17)
    val edges = GraphDF.symmetricEdgesDF(spark, g)
    val degrees = edges.groupBy(col("src")).agg(count(lit(1)).as("d"))
    val sparkDf = degrees.agg(avg("d").as("avg_deg"), max("d").as("max_deg"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      """SELECT avg(d) AS avg_deg, max(d) AS max_deg FROM
        |  (SELECT src, count(*) AS d FROM edges GROUP BY src) t""".stripMargin,
      "edges" -> edges)
  }

  test("GraphDF.stats agrees with direct computation") {
    val g = GraphGen.gridRoad(8, 8, 0.9, 2)
    val s = GraphDF.stats(spark, g)
    assert(s.vertices == g.n)
    assert(s.edges == g.numEdges)
    assert(math.abs(s.avgDeg - 2.0 * g.numEdges / g.n) < 1e-9)
    assert(s.maxDeg == (0 until g.n).map(g.degree).max)
    assert(s.diameter == g.diameterExact())
    assert(s.diameterExact)
  }

  test("core-index DataFrame groups core sizes correctly (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.figure1
    val core = KHCore.decompose(g, 2).core
    val df = GraphDF.coresDF(spark, core)
    val sparkDf = df.groupBy("core").agg(count(lit(1)).as("cnt"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      "SELECT core, count(*) AS cnt FROM cores GROUP BY core",
      "cores" -> df)
  }
}
