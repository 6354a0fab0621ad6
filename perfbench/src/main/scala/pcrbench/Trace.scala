package pcrbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

import repro.core.{PcrDecoder, PcrImageEntry, PcrRecord}
import repro.core.datasource.PcrPartitionReader
import repro.imaging.SyntheticImages
import repro.jpeg.{Codec, ScanScript}
import repro.train.{SoftmaxModel, SoftmaxParams, Trainer}

/** A timed call at a layer boundary; `parent` is the enclosing span or -1. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder for the calling thread. Spans are kept until the
  * run ends and then written out; a disabled tracer only runs the body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private val origin = System.nanoTime()

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += null
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Per span name: (count, total ms, self ms). Self time is a span's
    * duration minus the part of it its children cover.
    */
  def table: Seq[(String, Int, Double, Double)] = {
    val children = spans.groupBy(_.parent)
    def covered(s: Span): Long = {
      val iv = children.getOrElse(s.id, ArrayBuffer.empty).map(c => (c.startNs, c.endNs)).sortBy(_._1)
      var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a > curE) { if (curE > curS) total += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      if (curE > curS) total += curE - curS
      total
    }
    spans.groupBy(_.name).toSeq.map { case (name, ss) =>
      (name, ss.size, ss.map(_.ns).sum / 1e6, ss.map(s => s.ns - covered(s)).sum / 1e6)
    }.sortBy(-_._4)
  }

  /** One JSON object per line: id, parent, name, start and end in µs. */
  def write(path: String): Unit = {
    val lines = spans.iterator.map { s =>
      Json.render(Seq("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_us" -> (s.startNs - origin) / 1e3, "end_us" -> (s.endNs - origin) / 1e3))
    }
    Files.write(Paths.get(path), lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Single-threaded timings of each layer's public functions, over every
  * record of a workload, with a span around every call.
  */
object Layers {
  private val threadMx =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Totals of one read pass over all records at the workload's scan group. */
  final case class ReadPass(readNs: Long, entropyNs: Long, idctNs: Long, featuresNs: Long,
      accumulateNs: Long, dsv2Ns: Long, bytes: Long, scans: Long, idctAllocBytes: Long,
      records: Int, images: Int)

  /** For each record: drain a `PcrPartitionReader` through `next`/`get`,
    * then make its decode calls one by one, then the training step's
    * per-image calls (`extract`, `SoftmaxModel.accumulate`).
    *
    * The reader decodes the whole record (`PcrDecoder.readRecord`) in its
    * first `next`, so row building is timed on the later calls and scaled
    * to all rows; subtracting two decodes of the record instead would leave
    * a difference smaller than their run-to-run noise.
    */
  def readPass(tr: Tracer, wl: Workload, paths: Seq[String], p: SoftmaxParams): ReadPass = {
    val script = ScanScript.progressive10
    val grad = new Array[Double](p.theta.length)
    var readNs, entropyNs, idctNs, featuresNs, accNs, rowNs, bytes, scans, alloc = 0L
    var images = 0
    def timed[T](name: String)(body: => T): (T, Long) = {
      val t0 = System.nanoTime()
      val v = tr.span(name)(body)
      (v, System.nanoTime() - t0)
    }
    tr.span("layers.read_pass") {
      paths.foreach { path =>
        tr.span("core.dsv2.reader") {
          val r = new PcrPartitionReader(path, wl.scanGroup)
          try {
            val (first, _) = timed("core.dsv2.first_next")(r.next())
            var rows = if (first) 1 else 0
            var laterNs = 0L
            var more = first
            while (more) {
              val (hasNext, t) = timed("core.dsv2.row")(if (r.next()) { r.get(); true } else false)
              if (hasNext) { rows += 1; laterNs += t }
              more = hasNext
            }
            if (rows > 1) rowNs += laterNs * rows / (rows - 1)
          } finally r.close()
        }
        val ((header, entries), tRead) = timed("core.read")(PcrDecoder.readRecordRaw(path, wl.scanGroup))
        readNs += tRead
        bytes += header.prefixLength(math.min(wl.scanGroup, header.nScanGroups))
        entries.foreach { e =>
          val ((ci, depth), tEnt) =
            timed("jpeg.entropy")(Codec.decodeScans(e.scans, script, header.width, header.height))
          entropyNs += tEnt
          scans += e.scans.length
          val a0 = threadMx.getCurrentThreadAllocatedBytes
          val (img, tIdct) = timed("jpeg.idct")(Codec.fromCoefficients(ci, header.quality, depth))
          alloc += threadMx.getCurrentThreadAllocatedBytes - a0
          idctNs += tIdct
          val (x, tFeat) = timed("train.features")(Pipeline.arch.extract(img))
          featuresNs += tFeat
          accNs += timed("train.accumulate")(SoftmaxModel.accumulate(p, x, e.label, grad))._2
          images += 1
        }
      }
    }
    ReadPass(readNs, entropyNs, idctNs, featuresNs, accNs, rowNs, bytes, scans, alloc,
      paths.size, images)
  }

  /** Median seconds of `Trainer.gradient` over a cached, decoded dataset. */
  def gradientSeconds(spark: SparkSession, tr: Tracer, wl: Workload, dir: String,
      p: SoftmaxParams, reps: Int = 3): Double = {
    val ds = Pipeline.features(spark, wl, dir).cache()
    try {
      require(ds.count() == wl.numImages, "cached dataset lost rows")
      Stats.median((0 until reps).map { _ =>
        val t0 = System.nanoTime()
        tr.span("train.gradient.cached")(Trainer.gradient(ds, p))
        (System.nanoTime() - t0) / 1e9
      })
    } finally ds.unpersist(blocking = true)
  }

  /** Totals of one single-threaded encode of every record. */
  final case class EncodePass(generateNs: Long, fdctNs: Long, entropyEncodeNs: Long,
      serializeNs: Long)

  def encodePass(tr: Tracer, wl: Workload, seed: Long): EncodePass = {
    val spec = wl.spec
    var gen, fdct, ent, ser = 0L
    def timed[T](name: String)(body: => T): (T, Long) = {
      val t0 = System.nanoTime()
      val v = tr.span(name)(body)
      (v, System.nanoTime() - t0)
    }
    tr.span("layers.encode_pass") {
      (0 until wl.numRecords).foreach { r =>
        val entries = wl.recordIds(r).map { id =>
          val (img, t1) = timed("imaging.generate")(SyntheticImages.generate(spec, id, seed))
          val (ci, t2) = timed("jpeg.fdct")(Codec.toCoefficients(img, spec.quality))
          val (scans, t3) = timed("jpeg.entropy_encode")(Codec.encodeScript(ci, ScanScript.progressive10))
          gen += t1; fdct += t2; ent += t3
          PcrImageEntry(id, SyntheticImages.label(spec, id), scans)
        }
        ser += timed("core.serialize")(PcrRecord.serialize(spec.width, spec.height, spec.quality, entries))._2
      }
    }
    EncodePass(gen, fdct, ent, ser)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
