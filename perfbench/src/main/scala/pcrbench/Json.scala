package pcrbench

/** Minimal JSON rendering for the benchmark's result and span files.
  * Objects are `Seq[(String, Any)]` so keys keep their order.
  */
object Json {
  def render(v: Any): String = v match {
    case null                    => "null"
    case s: String               => quote(s)
    case b: Boolean              => b.toString
    case d: Double               =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int                  => n.toString
    case n: Long                 => n.toString
    case o: Option[_]            => o.map(render).getOrElse("null")
    case kv: Seq[_] if isObject(kv) =>
      kv.map { case (k: String, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]         => xs.map(render).mkString("[", ",", "]")
    case other                   => quote(other.toString)
  }

  private def isObject(xs: Seq[_]): Boolean =
    xs.nonEmpty && xs.forall { case (_: String, _) => true; case _ => false }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'              => sb.append("\\\"")
      case '\\'             => sb.append("\\\\")
      case '\n'             => sb.append("\\n")
      case '\t'             => sb.append("\\t")
      case c if c < ' '     => sb.append(f"\\u${c.toInt}%04x")
      case c                => sb.append(c)
    }
    sb.append('"').toString
  }
}
