package repro.core.lang

import scala.collection.mutable

/** Tuning knobs for graph construction (Appendix B pruning). The paper prunes
  * labels with a manually-defined static order but gives no constants; the
  * caps below keep the O(|s|²|t|²) construction and the path search bounded.
  */
final case class GraphConfig(
    affix: Boolean = true,
    maxPosFnsPerPosition: Int = 8,
    maxLabelsPerEdge: Int = 12,
) extends Serializable {
  /** Sides longer than this get a degenerate graph, which keeps node ids
    * ≤ 31 for the pivot search's Long bitmasks.
    */
  val maxSideLen: Int = 30
  val maxConstTermLen: Int = 6
}

/** Transformation graph of `s → t` (Definition 4): nodes 1..|t|+1, an edge
  * `(i, j)` for every substring `t[i, j)`, labeled with the string functions
  * that produce that substring from `s`.
  */
final case class TGraph(id: Int, s: String, t: String,
                        edges: Map[(Int, Int), Vector[Label]]) {
  def lastNode: Int = t.length + 1
}

object GraphBuilder {

  /** Build the transformation graph for `s → t` (Algorithm 4).
    *
    * `constScore` ranks constant-string terms (Appendix B:
    * freq-in-structure-group / sqrt(freq-global)); per position only the
    * top-ranked constant term is kept. Sides longer than `maxSideLen` get a
    * degenerate single-`ConstantStr` graph (DESIGN.md §6).
    */
  def build(id: Int, s: String, t: String, cfg: GraphConfig,
            constScore: String => Double = _ => 0.0): TGraph = {
    if (s.length > cfg.maxSideLen || t.length > cfg.maxSideLen)
      return TGraph(id, s, t,
        if (t.isEmpty) Map.empty
        else Map((1, t.length + 1) -> Vector(ConstantStr(t))))

    val positions = positionFunctions(s, cfg, constScore)
    val edges = mutable.HashMap.empty[(Int, Int), mutable.ArrayBuffer[Label]]

    def edgeBuf(i: Int, j: Int): mutable.ArrayBuffer[Label] =
      edges.getOrElseUpdate((i, j), mutable.ArrayBuffer.empty[Label])

    // ConstantStr and SubStr labels for every substring t[i, j).
    for (i <- 1 to t.length; j <- (i + 1) to (t.length + 1)) {
      val sub = t.substring(i - 1, j - 1)
      val buf = edgeBuf(i, j)
      buf += ConstantStr(sub)
      for ((x, y) <- Term.matches(TStr(sub), s); f <- positions(x); g <- positions(y))
        buf += SubStrF(f, g)
    }

    // Affix labels (Definition 6), longest-prefix/suffix-only (Appendix B).
    if (cfg.affix) {
      for (term <- Term.regexTerms) {
        val ms = Term.matches(term, s)
        val m  = ms.length
        for (((b, e), k0) <- ms.zipWithIndex) {
          val k     = k0 + 1
          val mtext = s.substring(b - 1, e - 1)
          for (i <- 1 to t.length) {
            val len = commonPrefixLen(t, i - 1, mtext)
            if (len >= 1) {
              val buf = edgeBuf(i, i + len)
              buf += PrefixF(term, k)
              buf += PrefixF(term, k - m - 1)
            }
          }
          for (j <- 2 to (t.length + 1)) {
            val len = commonSuffixLen(t, j - 1, mtext)
            if (len >= 1) {
              val buf = edgeBuf(j - len, j)
              buf += SuffixF(term, k)
              buf += SuffixF(term, k - m - 1)
            }
          }
        }
      }
    }

    val pruned = edges.iterator.map { case (ij, buf) =>
      // Definition 4 guarantees exactly one ConstantStr per edge; it is the
      // fallback that keeps every graph connected, so it is exempt from the cap.
      val (const, rest) = buf.distinct.toVector.partition(_.isInstanceOf[ConstantStr])
      val kept = rest.sortBy(l => (Label.staticRank(l), l.key))
        .take(math.max(0, cfg.maxLabelsPerEdge - 1)) ++ const
      ij -> kept
    }.toMap
    TGraph(id, s, t, pruned)
  }

  /** All position functions locating each position 1..|s|+1, sorted by the
    * Appendix-B static order (regex MatchPos, then constant-term MatchPos,
    * then ConstPos) and capped.
    */
  def positionFunctions(s: String, cfg: GraphConfig,
                        constScore: String => Double): Map[Int, Vector[Pos]] = {
    val acc = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Pos]]
    def add(x: Int, p: Pos): Unit =
      acc.getOrElseUpdate(x, mutable.ArrayBuffer.empty[Pos]) += p

    for (term <- Term.regexTerms) {
      val ms = Term.matches(term, s)
      val m  = ms.length
      for (((b, e), k0) <- ms.zipWithIndex) {
        val k = k0 + 1
        add(b, MatchPos(term, k, 'B')); add(b, MatchPos(term, k - m - 1, 'B'))
        add(e, MatchPos(term, k, 'E')); add(e, MatchPos(term, k - m - 1, 'E'))
      }
    }

    // Top-ranked constant-string term per position (begin and end separately).
    val bestB = mutable.HashMap.empty[Int, (String, Int, Int, Double)] // pos -> (str, k, m, score)
    val bestE = mutable.HashMap.empty[Int, (String, Int, Int, Double)]
    val seen  = mutable.HashSet.empty[String]
    for (a <- 0 until s.length; b <- (a + 1) to math.min(s.length, a + cfg.maxConstTermLen)) {
      val sub = s.substring(a, b)
      if (seen.add(sub)) {
        val score = constScore(sub)
        if (score > 0) {
          val ms = Term.matches(TStr(sub), s)
          val m  = ms.length
          for (((x, y), k0) <- ms.zipWithIndex) {
            val k = k0 + 1
            def better(cur: Option[(String, Int, Int, Double)]): Boolean =
              cur.forall { case (cs, _, _, cscore) => score > cscore || (score == cscore && sub < cs) }
            if (better(bestB.get(x))) bestB(x) = (sub, k, m, score)
            if (better(bestE.get(y))) bestE(y) = (sub, k, m, score)
          }
        }
      }
    }
    for ((x, (str, k, m, _)) <- bestB) {
      add(x, MatchPos(TStr(str), k, 'B')); add(x, MatchPos(TStr(str), k - m - 1, 'B'))
    }
    for ((y, (str, k, m, _)) <- bestE) {
      add(y, MatchPos(TStr(str), k, 'E')); add(y, MatchPos(TStr(str), k - m - 1, 'E'))
    }

    for (x <- 1 to (s.length + 1)) {
      add(x, ConstPos(x))
      if (x <= s.length) add(x, ConstPos(x - s.length - 1))
    }

    acc.iterator.map { case (x, buf) =>
      x -> buf.distinct.toVector.sortBy(p => (posRank(p), p.key)).take(cfg.maxPosFnsPerPosition)
    }.toMap.withDefaultValue(Vector.empty)
  }

  private def posRank(p: Pos): Int = p match {
    case MatchPos(_: TStr, _, _) => 1
    case MatchPos(_, _, _)       => 0
    case ConstPos(_)             => 2
  }

  private def commonPrefixLen(t: String, at: Int, m: String): Int = {
    var l = 0
    while (at + l < t.length && l < m.length && t.charAt(at + l) == m.charAt(l)) l += 1
    l
  }

  /** Longest `len` with `t[end-len, end) == m.takeRight(len)` (0-based `end`). */
  private def commonSuffixLen(t: String, end: Int, m: String): Int = {
    var l = 0
    while (l < end && l < m.length && t.charAt(end - 1 - l) == m.charAt(m.length - 1 - l)) l += 1
    l
  }
}
