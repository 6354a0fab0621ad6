package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

class BitIOSpec extends AnyFunSuite with PropSupport {

  /** Bit-at-a-time reference writer: the low `n` bits of each value, MSB
    * first, with the final byte padded with 1s.
    */
  private def referenceBytes(fields: Seq[(Int, Int)]): Array[Byte] = {
    val bits = fields.flatMap { case (v, n) => (n - 1 to 0 by -1).map(i => (v >>> i) & 1) }
    val padded = bits ++ Seq.fill((8 - bits.length % 8) % 8)(1)
    padded.grouped(8).map(_.foldLeft(0)((a, b) => (a << 1) | b).toByte).toArray
  }

  private def lowBits(v: Int, n: Int): Int = if (n == 32) v else v & ((1 << n) - 1)

  private val fieldGen: Gen[(Int, Int)] = for {
    n <- Gen.choose(0, 32)
    v <- Gen.choose(Int.MinValue, Int.MaxValue)
  } yield (v, n)

  test("bit sequences round-trip") {
    checkProp(Prop.forAll(Gen.listOf(Gen.oneOf(0, 1))) { bits =>
      val w = new BitWriter()
      bits.foreach(w.writeBit)
      val r = new BitReader(w.toBytes)
      bits.forall(b => r.readBit() == b)
    })
  }

  test("multi-bit values round-trip") {
    // Fields of 0 to 32 bits, checked against a bit-at-a-time writer.
    checkProp(Prop.forAll(Gen.listOf(fieldGen)) { fields =>
      val w = new BitWriter()
      fields.foreach { case (v, n) => w.writeBits(v, n) }
      val bytes = w.toBytes
      val r = new BitReader(bytes)
      bytes.sameElements(referenceBytes(fields)) &&
        w.bitLength == fields.map(_._2.toLong).sum &&
        fields.forall { case (v, n) => r.readBits(n) == lowBits(v, n) }
    }, n = 300)
  }

  test("bitLength counts exactly") {
    val w = new BitWriter()
    assert(w.bitLength == 0)
    w.writeBits(5, 3)
    assert(w.bitLength == 3)
    w.writeBits(0xff, 8)
    assert(w.bitLength == 11)
  }

  test("padding fills the final byte with 1s") {
    val w = new BitWriter()
    w.writeBits(0, 3) // 000 + 11111 padding
    assert(w.toBytes.sameElements(Array(0x1f.toByte)))
  }

  test("byte length is ceil(bits/8)") {
    checkProp(Prop.forAll(Gen.choose(0, 100)) { n =>
      val w = new BitWriter()
      (0 until n).foreach(_ => w.writeBit(1))
      w.toBytes.length == (n + 7) / 8
    })
  }

  test("reading past the end yields padding 1s") {
    val empty = new BitReader(Array[Byte]())
    assert(empty.readBit() == 1)
    assert(empty.readBits(5) == 31)
    assert(empty.readBits(32) == -1)
    checkProp(Prop.forAll(Gen.listOf(fieldGen), Gen.listOf(Gen.choose(0, 32))) { (fields, tail) =>
      val w = new BitWriter()
      fields.foreach { case (v, n) => w.writeBits(v, n) }
      val written = w.bitLength
      val r = new BitReader(w.toBytes)
      fields.foreach { case (_, n) => r.readBits(n) }
      // The padding bits of the last byte, then the virtual 1s beyond it.
      val padding = ((8 - written % 8) % 8).toInt
      r.readBits(padding) == lowBits(-1, padding) &&
        tail.forall(n => r.readBits(n) == lowBits(-1, n))
    })
  }

  test("writer grows beyond its initial capacity") {
    val w = new BitWriter(initialCapacity = 1)
    (0 until 10000).foreach(i => w.writeBit(i & 1))
    val r = new BitReader(w.toBytes)
    (0 until 10000).foreach(i => assert(r.readBit() == (i & 1)))
  }

  test("negative bit counts are rejected") {
    assertThrows[IllegalArgumentException](new BitWriter().writeBits(0, -1))
    assertThrows[IllegalArgumentException](new BitWriter().writeBits(0, 33))
    assertThrows[IllegalArgumentException](new BitReader(Array[Byte]()).readBits(-1))
  }
}
