package pcrbench

import java.nio.file.{Files, Paths}
import java.util.zip.CRC32

import scala.util.control.NonFatal

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{PcrDecoder, PcrEncoder, PcrImageEntry, PcrRecord, RecordManifest}
import repro.imaging.{Rng, SyntheticImages}
import repro.jpeg.{Codec, ScanScript}
import repro.train.{Features, LabeledVec, SoftmaxModel, SoftmaxParams, Trainer}

/** The operations the benchmark times, through public entry points only. */
object Pipeline {
  val arch: Features.ModelArch = Features.resnetLite

  /** Frozen, seeded, non-zero model parameters: every epoch computes the
    * same loss, and that loss depends on every decoded pixel.
    */
  def params(wl: Workload, seed: Long): SoftmaxParams = {
    val dim = Features.dim(arch, wl.spec.width, wl.spec.height)
    val k = wl.spec.numClasses
    val rng = new Rng(Rng.mix(seed, 0x7a11L))
    SoftmaxParams(k, dim, Array.fill(k * dim + k)(rng.uniform(-0.05, 0.05)))
  }

  def encode(spark: SparkSession, wl: Workload, seed: Long, dir: String): Seq[RecordManifest] =
    PcrEncoder.encodeDataset(spark, wl.spec, 1.0, dir, seed)

  /** The training input of one epoch: a DSv2 read of `dir` at the
    * workload's scan group, mapped to features. Lazy until `Trainer.gradient`
    * runs it; nothing is cached, so every epoch re-reads the records.
    */
  def features(spark: SparkSession, wl: Workload, dir: String): Dataset[LabeledVec] =
    Trainer.featuresAt(spark, dir, wl.scanGroup, arch)

  def deleteTree(dir: String): Unit = {
    val root = Paths.get(dir)
    if (Files.exists(root)) {
      val s = Files.walk(root)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(p => Files.delete(p))
      finally s.close()
    }
  }
}

/** One named correctness check; a failing check counts as a failed operation. */
final case class Check(name: String, ok: Boolean, detail: String)

/** What an independent, library-level pass over one record found. */
final case class RecordRef(
    index: Int,
    error: String,
    bytesEqual: Boolean,
    images: Seq[(Long, Int, Long)],
    mseSum: Double,
    lossSum: Double,
    grad: Array[Double])

object Checks {
  def relDiff(a: Double, b: Double): Double =
    if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))

  /** CRC32 of the three pixel planes as the DSv2 rows carry them. */
  def crc(y: Array[Byte], cb: Array[Byte], cr: Array[Byte]): Long = {
    val c = new CRC32
    c.update(y); c.update(cb); c.update(cr)
    c.getValue
  }

  private def bytes(p: Array[Int]): Array[Byte] = p.map(_.toByte)

  /** Re-derive every record independently of the Spark paths under test:
    * regenerate and re-encode its images single-threaded and compare the
    * file byte for byte, then decode it with `PcrDecoder.readRecord` for the
    * reference pixels, luma error against the generator, and loss/gradient.
    * Records run as tasks of a plain RDD job, one per record.
    */
  def reference(spark: SparkSession, wl: Workload, seed: Long, paths: Seq[String],
      p: SoftmaxParams): Seq[RecordRef] = {
    val dim = p.theta.length
    spark.sparkContext.parallelize(paths.zipWithIndex, paths.size).map { case (path, r) =>
      try {
        val spec = wl.spec
        val ids = wl.recordIds(r)
        val imgs = ids.map(id => SyntheticImages.generate(spec, id, seed))
        val entries = ids.zip(imgs).map { case (id, img) =>
          PcrImageEntry(id, SyntheticImages.label(spec, id), Codec.encodeProgressive(img, spec.quality))
        }
        val expected = PcrRecord.serialize(spec.width, spec.height, spec.quality, entries)
        val equal = java.util.Arrays.equals(expected, Files.readAllBytes(Paths.get(path)))
        val decoded = PcrDecoder.readRecord(path, wl.scanGroup)
        require(decoded.map(_.id) == ids, s"record $r decodes ids ${decoded.map(_.id)}")
        val grad = new Array[Double](dim)
        var mse = 0.0; var loss = 0.0
        decoded.zip(imgs).foreach { case (d, ref) =>
          mse += d.image.mseY(ref)
          loss += SoftmaxModel.accumulate(p, Pipeline.arch.extract(d.image), d.label, grad)
        }
        val crcs = decoded.map(d =>
          (d.id, d.label, crc(bytes(d.image.y), bytes(d.image.cb), bytes(d.image.cr))))
        RecordRef(r, "", equal, crcs, mse, loss, grad)
      } catch {
        case NonFatal(e) => RecordRef(r, s"$path: $e", false, Nil, 0, 0, Array.empty)
      }
    }.collect().toSeq.sortBy(_.index)
  }

  /** Rows of a DSv2 read at the workload's scan group, reduced on the
    * executors to (id, label, scan_group, bytes_read, plane CRC).
    */
  def dsv2Rows(spark: SparkSession, wl: Workload, dir: String): Array[(Long, Int, Int, Double, Long)] = {
    import spark.implicits._
    spark.read.format("pcr").option("scanGroup", wl.scanGroup).load(dir)
      .select("id", "label", "scan_group", "bytes_read", "y", "cb", "cr")
      .as[(Long, Int, Int, Double, Array[Byte], Array[Byte], Array[Byte])]
      .map { case (id, label, g, br, y, cb, cr) => (id, label, g, br, crc(y, cb, cr)) }
      .collect()
  }

  /** Every record's header agrees with the manifest the encoder returned
    * and with the file on disk.
    */
  def headersMatch(wl: Workload, manifests: Seq[RecordManifest]): Check = {
    val bad = manifests.flatMap { m =>
      val h = PcrDecoder.readHeader(m.path)
      val size = Files.size(Paths.get(m.path))
      if (h.nImages == m.nImages && h.totalLength == m.totalBytes && size == m.totalBytes &&
          h.groupEndOffsets.toSeq == m.groupEndOffsets) None
      else Some(s"${m.path}: header n=${h.nImages} total=${h.totalLength} file=$size vs manifest $m")
    }
    val count = manifests.map(_.nImages.toLong).sum
    val ok = bad.isEmpty && manifests.size == wl.numRecords && count == wl.numImages
    Check("headers-match-manifests", ok,
      if (ok) s"${manifests.size} records" else (bad :+ s"${manifests.size} records, $count images").mkString("; "))
  }

  /** Full progressive decode equals the sequential codec, on sampled ids. */
  def progressiveEqualsSequential(wl: Workload, seed: Long, paths: Seq[String]): Check = {
    val spec = wl.spec
    val rng = new Rng(Rng.mix(seed, 0x5e9L))
    val ids = Seq.fill(4)((rng.nextDouble() * wl.numImages).toLong)
    val bad = ids.filterNot { id =>
      val r = (id / spec.imagesPerRecord).toInt
      val (_, entries) = PcrDecoder.readRecordRaw(paths(r), ScanScript.progressive10.length)
      val e = entries.find(_.id == id).get
      val prog = Codec.decodeProgressive(e.scans, spec.quality, spec.width, spec.height)
      val img = SyntheticImages.generate(spec, id, seed)
      val seq = Codec.decodeSequential(Codec.encodeSequential(img, spec.quality),
        spec.quality, spec.width, spec.height)
      prog.y.sameElements(seq.y) && prog.cb.sameElements(seq.cb) && prog.cr.sameElements(seq.cr)
    }
    Check("progressive-equals-sequential", bad.isEmpty,
      if (bad.isEmpty) s"ids ${ids.mkString(",")}" else s"differ on ids ${bad.mkString(",")}")
  }
}
