package repro.core.lang

import repro.core.Trans
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Configuration of the pivot-path search (Sections 4.2–4.4).
  * θ = `maxPathLen` is the maximum number of string functions in a path;
  * the threshold flags correspond to the paper's LocalThrsh / GlobalThrsh /
  * AllThrsh / NoThrsh pruning variants (Section 7.3).
  */
final case class PivotConfig(
    maxPathLen: Int = 4,
    localThreshold: Boolean = true,
    globalThreshold: Boolean = true,
    graph: GraphConfig = GraphConfig(),
    /** Appendix B: with a very large pool Σ, score candidate paths against a
      * random sample of Σ instead of all of it. 0 disables sampling.
      */
    sampleCap: Int = 96,
    /** Hard cap on (edge, label) expansions per graph search — the same
      * "control its runtime in a reasonable manner" role as θ (Section 4.3),
      * needed because our substrate is JVM-based, not the paper's C++.
      * The best path found within the budget is kept. 0 disables the cap.
      */
    searchBudget: Long = 2500,
) extends Serializable

/** A program group: transformations sharing the same pivot path. */
final case class ProgGroup(pathKey: String, path: Vector[Label], members: Vector[Trans])

/** Grouping-by-programs (Section 4): for each transformation pick the pivot
  * path — the transformation path of its graph contained by the most graphs
  * in the pool Σ — then group transformations with equal pivot paths.
  *
  * Implementation notes: each pool interns its labels to dense `Int` ids
  * once; the search runs on ids and maps them back to labels only to record
  * a path. I[f] holds, per id, the ascending ids of the graphs containing f
  * and, per graph, the sorted packed edges `(i << 8) | j` (Section 4.2's
  * ⟨G, i, j⟩ triples). Labels with equal postings extend every partial path
  * alike, so only the static-order first of each such alias set is expanded.
  * Node ids are ≤ maxSideLen + 1 = 31, so the set of reachable nodes per
  * graph is a Long bitmask. The local/global thresholds are Section 4.3.
  */
object Pivot {

  /** Counts of constant-string-term candidates over the lhs strings of a set
    * of transformations: +1 per transformation whose lhs contains the
    * substring (length ≤ maxLen). Used for the Appendix-B ranking score.
    */
  def constTermFreq(lhs: Iterable[String], maxLen: Int): Map[String, Int] = {
    val acc = mutable.HashMap.empty[String, Int]
    for (s <- lhs) {
      val subs = mutable.HashSet.empty[String]
      for (a <- 0 until s.length; b <- (a + 1) to math.min(s.length, a + maxLen))
        subs += s.substring(a, b)
      for (sub <- subs) acc.updateWith(sub) { c => Some(c.getOrElse(0) + 1) }
    }
    acc.toMap
  }

  /** Appendix-B score for constant terms: freq-in-group / sqrt(freq-global). */
  def constScoreFn(groupFreq: Map[String, Int], globalFreq: Map[String, Int]): String => Double = {
    sub =>
      val g = groupFreq.getOrElse(sub, 0)
      if (g < 2) 0.0 // a term appearing in a single transformation cannot anchor a group
      else g / math.sqrt(math.max(1, globalFreq.getOrElse(sub, g)).toDouble)
  }

  private val SampleSeed = 97L // of the Appendix-B sample

  /** Pivot when no path is shared: the empty program, or the ConstantStr(t) edge. */
  private def fallbackPath(rhs: String): Vector[Label] =
    if (rhs.isEmpty) Vector.empty else Vector(ConstantStr(rhs))

  /** Group a pool Σ of transformations by pivot paths. Deterministic in the
    * input (the pool is sorted internally).
    */
  def groupByPrograms(pool: Seq[Trans], cfg: PivotConfig,
                      globalConstFreq: Map[String, Int]): Vector[ProgGroup] = {
    val sorted = pool.distinct.sortBy(tr => (tr.lhs, tr.rhs)).toVector
    if (sorted.isEmpty) return Vector.empty
    // A singleton pool can never merge: any consistent program will do.
    if (sorted.size == 1) {
      val path = fallbackPath(sorted.head.rhs)
      return Vector(ProgGroup(PathCheck.pathKey(path), path, sorted))
    }

    // Overlong transformations get the fallback pivot up front: their graphs
    // carry no other labels, so they can only ever group with an identical
    // rhs — and node ids past 62 would overflow the bitmask below.
    val maxSideLen = cfg.graph.maxSideLen
    val (searchable, overlong) = sorted.partition(tr =>
      tr.lhs.length <= maxSideLen && tr.rhs.length <= maxSideLen)
    val overlongGroups = overlong
      .groupBy(_.rhs)
      .iterator.map { case (rhs, ms) =>
        val path = fallbackPath(rhs)
        ProgGroup(PathCheck.pathKey(path), path, ms)
      }
      .toVector

    val groupFreq = constTermFreq(searchable.map(_.lhs), cfg.graph.maxConstTermLen)
    val scoreFn   = constScoreFn(groupFreq, globalConstFreq)
    val graphs    = searchable.zipWithIndex.map { case (tr, i) =>
      GraphBuilder.build(i, tr.lhs, tr.rhs, cfg.graph, scoreFn)
    }

    // Intern each label to a dense id, in one pass over the graphs that also
    // builds I[f] and each graph's adjacency (per node: targets farthest
    // first, each edge's label ids in its label order).
    val idOf    = mutable.HashMap.empty[Label, Int]
    val labelOf = mutable.ArrayBuffer.empty[Label]
    val gidsB   = mutable.ArrayBuffer.empty[mutable.ArrayBuilder.ofInt]
    val edgesB  = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Array[Int]]]
    val adjacency = graphs.map { g =>
      val targets = Array.fill(g.lastNode + 1)(Array.emptyIntArray)
      val labels  = Array.fill(g.lastNode + 1)(Array.empty[Array[Int]])
      val idEdges = mutable.ArrayBuilder.make[Long] // (id << 32) | (i << 8) | j
      for ((i, out) <- g.edges.keys.groupBy(_._1)) {
        targets(i) = out.map(_._2).toArray.sortBy(-_)
        labels(i) = targets(i).map(j => g.edges((i, j)).map { l =>
          val id = idOf.getOrElseUpdate(l, {
            labelOf += l; gidsB += new mutable.ArrayBuilder.ofInt; edgesB += mutable.ArrayBuffer.empty
            labelOf.length - 1
          })
          idEdges += (id.toLong << 32) | (i << 8) | j
          id
        }.toArray)
      }
      val ps = idEdges.result().sorted
      var a = 0
      while (a < ps.length) {
        val id = (ps(a) >>> 32).toInt
        var b = a
        while (b < ps.length && (ps(b) >>> 32).toInt == id) b += 1
        gidsB(id) += g.id
        edgesB(id) += ps.slice(a, b).map(_.toInt)
        a = b
      }
      (targets, labels)
    }
    val postGids  = gidsB.map(_.result()).toArray
    val postEdges = edgesB.map(_.toArray).toArray

    // Labels with equal postings are aliases: keep the static-order first of
    // each alias set and expand only it.
    val repId = new Array[Int](labelOf.length)
    val aliases = labelOf.indices.groupBy(id =>
      (ArraySeq.unsafeWrapArray(postGids(id)), postEdges(id).toSeq.map(ArraySeq.unsafeWrapArray(_))))
    for (ids <- aliases.valuesIterator) {
      val rep = if (ids.size == 1) ids.head
                else ids.minBy(id => (Label.staticRank(labelOf(id)), labelOf(id).key))
      for (id <- ids) repId(id) = rep
    }
    for ((_, labels) <- adjacency; perNode <- labels; e <- perNode.indices)
      perNode(e) = perNode(e).map(repId).distinct

    val state    = new SearchState(graphs, cfg)
    val searcher = new Searcher(state, postGids, postEdges, labelOf, cfg)
    for ((g, (targets, labels)) <- graphs.zip(adjacency)) searcher.searchGraph(g, targets, labels)

    val searchGroups = graphs.groupBy(g => PathCheck.pathKey(state.bestPath(g.id)))
      .iterator
      .map { case (key, gs) =>
        ProgGroup(key, state.bestPath(gs.head.id), gs.map(g => searchable(g.id)))
      }
      .toVector
    (searchGroups ++ overlongGroups)
      .groupBy(_.pathKey)
      .iterator
      .map { case (key, gs) => ProgGroup(key, gs.head.path, gs.flatMap(_.members)) }
      .toVector
      .sortBy(_.pathKey)
  }

  /** Shared global-threshold state (Section 4.3) plus the Appendix-B sample
    * of graph ids that candidate paths are scored against.
    */
  private final class SearchState(graphs: Vector[TGraph], cfg: PivotConfig) {
    val n: Int                         = graphs.length
    val lastNode: Array[Int]           = graphs.map(_.lastNode).toArray
    val bestScore: Array[Int]          = Array.fill(n)(0)
    val bestPath: Array[Vector[Label]] = graphs.map(g => fallbackPath(g.t)).toArray
    val sample: Array[Int] =
      if (cfg.sampleCap <= 0 || n <= cfg.sampleCap) Array.range(0, n)
      else new scala.util.Random(SampleSeed).shuffle((0 until n).toVector)
        .take(cfg.sampleCap).sorted.toArray
    val maxScore: Int = math.min(n, sample.length + 1) // sample plus the searched graph
  }

  /** FindingPivotPath (Algorithms 2–3) over a pool, sharing the global
    * threshold state across graphs. Flat arrays + merge-join intersections:
    * the hot recursion must stay JIT-friendly (DESIGN.md §6). Labels are
    * interned ids; `postGids(f)`/`postEdges(f)` is I[f].
    */
  private final class Searcher(
      state: SearchState,
      postGids: Array[Array[Int]],
      postEdges: Array[Array[Array[Int]]],
      labelOf: collection.IndexedSeq[Label],
      cfg: PivotConfig) {

    private val maxDepth = math.max(1, cfg.maxPathLen)
    private val n        = state.n

    // per-depth ℓ buffers: parallel (gid, reachable-node bitmask) arrays
    private val bufGids  = Array.ofDim[Int](maxDepth + 1, n)
    private val bufMasks = Array.ofDim[Long](maxDepth + 1, n)
    private val ellSize  = new Array[Int](maxDepth + 1)
    private val pathBuf  = new Array[Int](maxDepth)

    private var gLastNode = 0
    private var adjTargets: Array[Array[Int]]        = _
    private var adjLabels: Array[Array[Array[Int]]]  = _
    private var localBest  = 0
    private var localPath: Vector[Label] = null
    private var ops    = 0L
    private val budget = if (cfg.searchBudget <= 0) Long.MaxValue else cfg.searchBudget

    /** Search `g` given its adjacency: per node, targets and label ids. */
    def searchGraph(g: TGraph, targets: Array[Array[Int]], labels: Array[Array[Array[Int]]]): Unit = {
      if (g.t.isEmpty) return
      // The fallback path always covers this graph itself.
      if (state.bestScore(g.id) < 1) state.bestScore(g.id) = 1
      // Global threshold shortcut: an earlier search already found a path for
      // this graph shared by the whole (sampled) pool — nothing can beat it.
      if (cfg.globalThreshold && state.bestScore(g.id) >= state.maxScore) return

      gLastNode = g.lastNode
      adjTargets = targets
      adjLabels = labels
      localBest = if (cfg.globalThreshold) state.bestScore(g.id) else 1
      localPath = null
      ops = 0L

      // ℓ₀ = the Appendix-B sample plus this graph itself, node 1 reachable
      var m = 0
      var inserted = false
      var si = 0
      while (si < state.sample.length) {
        val gid = state.sample(si)
        if (!inserted && g.id < gid) {
          bufGids(0)(m) = g.id; bufMasks(0)(m) = 2L; m += 1; inserted = true
        }
        bufGids(0)(m) = gid; bufMasks(0)(m) = 2L; m += 1
        if (gid == g.id) inserted = true
        si += 1
      }
      if (!inserted) { bufGids(0)(m) = g.id; bufMasks(0)(m) = 2L; m += 1 }
      ellSize(0) = m

      search(0, 1)

      if (localPath != null && localBest > state.bestScore(g.id)) {
        state.bestScore(g.id) = localBest
        state.bestPath(g.id) = localPath
      }
    }

    // SearchPivot (Algorithm 3) with local/global thresholds, max θ and the
    // expansion budget.
    private def search(depth: Int, node: Int): Unit = {
      val targets = adjTargets(node)
      val labelsPerEdge = adjLabels(node)
      var e = 0
      while (e < targets.length) {
        val j = targets(e)
        val labels = labelsPerEdge(e)
        var li = 0
        while (li < labels.length) {
          val f = labels(li)
          ops += 1
          if (ops <= budget) {
            val sz = intersect(depth, f)
            if (sz > 0) {
              pathBuf(depth) = f
              if (j == gLastNode) {
                complete(depth)
              } else if (depth + 1 < maxDepth &&
                         (!cfg.localThreshold || sz > localBest)) {
                // |ℓ'| bounds any completion below here (local threshold)
                search(depth + 1, j)
              }
            }
          }
          li += 1
        }
        e += 1
      }
    }

    /** A transformation path of length depth+1 is complete in pathBuf. */
    private def complete(depth: Int): Unit = {
      val gids  = bufGids(depth + 1)
      val masks = bufMasks(depth + 1)
      val m     = ellSize(depth + 1)
      var score = 0
      var k = 0
      while (k < m) {
        if (((masks(k) >>> state.lastNode(gids(k))) & 1L) != 0L) score += 1
        k += 1
      }
      if (score > localBest || localPath == null) {
        localBest = score
        localPath = materialize(depth)
      }
      if (cfg.globalThreshold && score > 1) {
        var p: Vector[Label] = null
        k = 0
        while (k < m) {
          val gi = gids(k)
          if (((masks(k) >>> state.lastNode(gi)) & 1L) != 0L && score > state.bestScore(gi)) {
            if (p == null) p = materialize(depth)
            state.bestScore(gi) = score
            state.bestPath(gi) = p
          }
          k += 1
        }
      }
    }

    private def materialize(depth: Int): Vector[Label] = {
      val b = Vector.newBuilder[Label]
      var k = 0
      while (k <= depth) { b += labelOf(pathBuf(k)); k += 1 }
      b.result()
    }

    /** ℓ at `depth` ∩ I[f] → ℓ at depth+1 (adjacency-aware, Section 4.2). */
    private def intersect(depth: Int, f: Int): Int = {
      val pGids  = postGids(f)
      val pEdges = postEdges(f)
      val inG    = bufGids(depth)
      val inM    = bufMasks(depth)
      val m      = ellSize(depth)
      val outG   = bufGids(depth + 1)
      val outM   = bufMasks(depth + 1)
      var o = 0

      @inline def emit(ga: Int, mask: Long, edges: Array[Int]): Unit = {
        var acc = 0L
        var k = 0
        while (k < edges.length) {
          val e2 = edges(k)
          if (((mask >>> (e2 >>> 8)) & 1L) != 0L) acc |= 1L << (e2 & 0xff)
          k += 1
        }
        if (acc != 0L) { outG(o) = ga; outM(o) = acc; o += 1 }
      }

      if (pGids.length > 8 * m) {
        // postings much larger than ℓ (TransAgg pools): binary-search
        // each live graph instead of walking the whole postings array
        var a = 0
        while (a < m) {
          val ga = inG(a)
          val b  = java.util.Arrays.binarySearch(pGids, ga)
          if (b >= 0) emit(ga, inM(a), pEdges(b))
          a += 1
        }
      } else {
        var a = 0; var b = 0
        while (a < m && b < pGids.length) {
          val ga = inG(a); val gb = pGids(b)
          if (ga < gb) a += 1
          else if (ga > gb) b += 1
          else { emit(ga, inM(a), pEdges(b)); a += 1; b += 1 }
        }
      }
      ellSize(depth + 1) = o
      o
    }
  }
}
