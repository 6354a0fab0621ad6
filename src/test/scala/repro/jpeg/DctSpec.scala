package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

class DctSpec extends AnyFunSuite with PropSupport {

  private val blockGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](64, Gen.choose(-128.0, 127.0))

  // ------------------------------------------------- dense reference product

  private val refBasis: Array[Array[Double]] = Array.tabulate(8, 8) { (u, x) =>
    val c = if (u == 0) 1.0 / math.sqrt(2.0) else 1.0
    c / 2.0 * math.cos((2 * x + 1) * u * math.Pi / 16.0)
  }

  /** `Cᵀ F C` as two dense 8×8 products, every term summed in index order. */
  private def refInverse(coef: Array[Double]): Array[Double] = {
    val tmp = Array.tabulate(64) { i =>
      val x = i / 8; val v = i % 8
      (0 until 8).foldLeft(0.0)((s, u) => s + refBasis(u)(x) * coef(u * 8 + v))
    }
    Array.tabulate(64) { i =>
      val x = i / 8; val y = i % 8
      (0 until 8).foldLeft(0.0)((s, v) => s + tmp(x * 8 + v) * refBasis(v)(y))
    }
  }

  /** `C f Cᵀ` as two dense 8×8 products, every term summed in index order. */
  private def refForward(block: Array[Double]): Array[Double] = {
    val tmp = Array.tabulate(64) { i =>
      val u = i / 8; val y = i % 8
      (0 until 8).foldLeft(0.0)((s, x) => s + refBasis(u)(x) * block(x * 8 + y))
    }
    Array.tabulate(64) { i =>
      val u = i / 8; val v = i % 8
      (0 until 8).foldLeft(0.0)((s, y) => s + tmp(u * 8 + y) * refBasis(v)(y))
    }
  }

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i =>
      java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)))

  /** Scratch and output buffers start dirty, so a result cannot lean on them. */
  private def dirty(): Array[Double] = Array.fill(64)(Double.NaN)

  private val coefGen: Gen[Double] = Gen.choose(-2048, 2048).map(_.toDouble)

  /** Dense, DC-only, all-zero and sparse blocks with whole zero columns and
    * zero column tails — the shapes the inverse's shortcuts distinguish.
    */
  private val coefBlockGen: Gen[Array[Double]] = Gen.oneOf(
    Gen.containerOfN[Array, Double](64, coefGen),
    coefGen.map(dc => Array.tabulate(64)(i => if (i == 0) dc else 0.0)),
    Gen.const(new Array[Double](64)),
    for {
      dense <- Gen.containerOfN[Array, Double](64, coefGen)
      rows  <- Gen.containerOfN[Array, Int](8, Gen.choose(0, 8)) // kept rows per column
      keep  <- Gen.containerOfN[Array, Boolean](64, Gen.frequency(3 -> true, 1 -> false))
    } yield Array.tabulate(64)(i => if (i / 8 < rows(i % 8) && keep(i)) dense(i) else 0.0))

  test("forward then inverse is the identity (orthonormal transform)") {
    checkProp(Prop.forAll(blockGen) { b =>
      val r = Dct.inverse(Dct.forward(b))
      b.zip(r).forall { case (x, y) => math.abs(x - y) < 1e-9 }
    })
  }

  test("inverse then forward is the identity") {
    checkProp(Prop.forAll(blockGen) { b =>
      val r = Dct.forward(Dct.inverse(b))
      b.zip(r).forall { case (x, y) => math.abs(x - y) < 1e-9 }
    })
  }

  test("transform preserves energy (Parseval)") {
    checkProp(Prop.forAll(blockGen) { b =>
      val f = Dct.forward(b)
      val e1 = b.map(x => x * x).sum
      val e2 = f.map(x => x * x).sum
      math.abs(e1 - e2) < 1e-6 * math.max(1.0, e1)
    })
  }

  test("DC coefficient of a constant block is 8 × the value") {
    val b = Array.fill(64)(10.0)
    val f = Dct.forward(b)
    assert(math.abs(f(0) - 80.0) < 1e-9)
    f.drop(1).foreach(v => assert(math.abs(v) < 1e-9))
  }

  test("linearity") {
    checkProp(Prop.forAll(blockGen, blockGen) { (a, b) =>
      val sum = a.zip(b).map { case (x, y) => x + y }
      val fs = Dct.forward(sum)
      val fa = Dct.forward(a); val fb = Dct.forward(b)
      fs.indices.forall(i => math.abs(fs(i) - fa(i) - fb(i)) < 1e-8)
    })
  }

  test("inverseInto equals the dense reference product bit for bit") {
    checkProp(Prop.forAll(coefBlockGen) { coef =>
      val out = dirty()
      Dct.inverseInto(coef, dirty(), out)
      sameBits(out, refInverse(coef)) && sameBits(Dct.inverse(coef), out)
    }, n = 400)
  }

  test("forwardInto equals the dense reference product bit for bit") {
    checkProp(Prop.forAll(blockGen) { block =>
      val out = dirty()
      Dct.forwardInto(block, dirty(), out)
      sameBits(out, refForward(block)) && sameBits(Dct.forward(block), out)
    })
  }

  test("a DC-only block inverts to the constant dcOnly(F00)") {
    checkProp(Prop.forAll(coefGen) { dc =>
      val coef = new Array[Double](64)
      coef(0) = dc
      Dct.inverse(coef).forall(v => v == Dct.dcOnly(dc))
    })
  }

  test("rejects wrong-sized blocks") {
    assertThrows[IllegalArgumentException](Dct.forward(new Array[Double](63)))
    assertThrows[IllegalArgumentException](Dct.inverse(new Array[Double](65)))
    assertThrows[IllegalArgumentException](
      Dct.inverseInto(new Array[Double](64), new Array[Double](8), new Array[Double](64)))
  }

  test("a pure basis function concentrates into one coefficient") {
    val u0 = 3; val v0 = 5
    val block = Array.tabulate(64) { i =>
      val x = i / 8; val y = i % 8
      math.cos((2 * x + 1) * u0 * math.Pi / 16) * math.cos((2 * y + 1) * v0 * math.Pi / 16)
    }
    val f = Dct.forward(block)
    f.indices.filter(_ != u0 * 8 + v0).foreach(i => assert(math.abs(f(i)) < 1e-9))
    assert(math.abs(f(u0 * 8 + v0)) > 1.0)
  }
}
