package pcrbench

import repro.imaging.{DatasetSpec, SyntheticImages}
import repro.jpeg.ScanScript

/** One benchmark workload: a generated dataset, the scan group it is read
  * at, and whether one operation is a training epoch or a dataset encode.
  *
  * Every workload has 32 records, so each of up to four task threads gets
  * at least eight records and partitions stay balanced. Records are large
  * enough that an epoch takes most of a second and Spark's fixed cost per
  * epoch does not dominate it. The `tiny` sizes serve the self-test only.
  */
final case class Workload(name: String, spec: DatasetSpec, scanGroup: Int, train: Boolean) {
  /** Datasets are encoded at scale factor 1, so `imagesPerSf` is the size. */
  def numImages: Int = spec.imagesPerSf
  def numRecords: Int = (numImages + spec.imagesPerRecord - 1) / spec.imagesPerRecord

  /** Image ids of record `r`, grouped as `PcrEncoder` groups them. */
  def recordIds(r: Int): Seq[Long] = {
    val ipr = spec.imagesPerRecord.toLong
    (r * ipr until math.min(numImages.toLong, (r + 1) * ipr)).toSeq
  }

  def fullFidelity: Boolean = scanGroup >= ScanScript.progressive10.length
}

object Workload {
  val names: Seq[String] = Seq("imagenet-scan1-train", "ham-scan10-train", "imagenet-encode")

  private def sized(spec: DatasetSpec, records: Int, perRecord: Int): DatasetSpec =
    spec.copy(imagesPerSf = records * perRecord, imagesPerRecord = perRecord)

  def byName(name: String, tiny: Boolean): Workload = {
    val records = if (tiny) 4 else 32
    val imagenet = sized(SyntheticImages.imagenet, records, if (tiny) 8 else 128)
    name match {
      // Scan 1 reads ~130 B per image: dequant + IDCT dominate decode.
      case "imagenet-scan1-train" => Workload(name, imagenet, 1, train = true)
      // Full fidelity at q100: entropy decode is as large as IDCT.
      case "ham-scan10-train" =>
        Workload(name, sized(SyntheticImages.ham10000, records, if (tiny) 4 else 32), 10, train = true)
      // The write side of the same codec.
      case "imagenet-encode" => Workload(name, imagenet, 10, train = false)
      case other => throw new IllegalArgumentException(
        s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
    }
  }
}
