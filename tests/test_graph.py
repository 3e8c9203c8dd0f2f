"""Interaction graph, distance features, and sub-graph decomposition."""

import decimal
import itertools

import numpy as np
import pytest

from gridmarl import (
    DomainError,
    EmptyWorld,
    MemberNotFound,
    Position,
    Scenario,
    ScenarioConfig,
    build_graph,
    decompose,
    new_scenario,
    rbe,
    vertex_features,
    all_vertex_features,
    VERTEX_DIM,
)
from gridmarl.graph import Decomposition, EnvGraph, SubGraph, _rbe_rows
from gridmarl.nn import batch_subgraphs


def rbe_oracle(d: float, delta_d: float, n_max: int) -> list[float]:
    """Element-wise high-precision evaluation via decimal arithmetic."""
    ctx = decimal.Context(prec=40)
    dd = decimal.Decimal(d)
    dl = decimal.Decimal(delta_d)
    out = []
    for n in range(n_max):
        arg = -((dd - n * dl) ** 2) / dl
        out.append(float(ctx.exp(arg)))
    return out


def random_world(rng: np.random.Generator, max_agents: int = 12):
    n = int(rng.integers(2, max_agents + 1))
    side = int(rng.integers(4, 9))
    n = min(n, side * side - 1)
    cfg = ScenarioConfig(
        scenario=Scenario.JUNGLE, width=side, height=side, agents=n, episode_limit=50
    )
    return new_scenario(cfg, int(rng.integers(10_000)))


def brute_force_edges(world):
    pairs = []
    alive = sorted(world.alive_agents(), key=lambda a: a.id)
    for a, b in itertools.combinations(alive, 2):
        if max(abs(a.pos.x - b.pos.x), abs(a.pos.y - b.pos.y)) <= 1:
            pairs.append((a.id, b.id))
    return sorted(pairs)


def hop_distances(n: int, edges, src: int) -> dict[int, int]:
    """Plain BFS over an adjacency map built from undirected pairs."""
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def loop_decompose(g: EnvGraph, depth: int, delta_d: float = 0.3, n_max: int = 10) -> list[SubGraph]:
    """Reference decomposition: one breadth-first search per centre.

    Members come level by level, each level in ascending local index; the
    induced edges are listed by source slot, then by ascending neighbour
    index, each pair as (k, j) then (j, k).
    """
    adjacency: list[list[int]] = [[] for _ in g.ids]
    for u, v in g.edges.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neigh in adjacency:
        neigh.sort()
    pair_dist = dict(zip(map(tuple, g.edges.tolist()), g.dists.tolist()))

    out = []
    for centre_local in range(len(g.ids)):
        members = [centre_local]
        seen = {centre_local}
        frontier = [centre_local]
        for _ in range(depth):
            nxt: set[int] = set()
            for u in frontier:
                for v in adjacency[u]:
                    if v not in seen:
                        nxt.add(v)
            frontier = sorted(nxt)
            seen.update(frontier)
            members.extend(frontier)
            if not frontier:
                break

        slot = {loc: k for k, loc in enumerate(members)}
        src, dst, dist = [], [], []
        for k, loc in enumerate(members):
            for nb in adjacency[loc]:
                j = slot.get(nb)
                if j is None or j <= k:
                    continue
                d = pair_dist[(min(loc, nb), max(loc, nb))]
                src += [k, j]
                dst += [j, k]
                dist += [d, d]

        dist_arr = np.array(dist)
        out.append(
            SubGraph(
                centre=int(g.ids[centre_local]),
                members=g.ids[np.array(members, dtype=np.int64)],
                features=g.features[np.array(members, dtype=np.int64)],
                edge_src=np.array(src, dtype=np.int64),
                edge_dst=np.array(dst, dtype=np.int64),
                edge_dist=dist_arr,
                edge_feat=_rbe_rows(dist_arr, delta_d, n_max) if len(dist) else np.zeros((0, n_max)),
                depth=depth,
            )
        )
    return out


def stacked_world(rng: np.random.Generator, scenario: Scenario):
    """A random world in which some agents share a cell and some are dead."""
    side = int(rng.integers(4, 10))
    n = int(rng.integers(2, side * side // 3 + 2))
    agents = n if scenario is Scenario.JUNGLE else max(1, n // 2)
    cfg = ScenarioConfig(scenario=scenario, width=side, height=side, agents=agents, episode_limit=50)
    w = new_scenario(cfg, int(rng.integers(10_000)))
    for a in w.agents:
        u = rng.random()
        if u < 0.15:
            a.pos = w.agents[int(rng.integers(len(w.agents)))].pos
        elif u < 0.25:
            a.alive = False
    if not any(a.alive for a in w.agents):
        w.agents[0].alive = True
    return w


class TestRbe:
    def test_matches_decimal_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = float(rng.uniform(0, 4))
            dd = float(rng.uniform(0.05, 1.0))
            got = rbe(d, dd, 10)
            want = rbe_oracle(d, dd, 10)
            assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_unit_peak_at_grid_points(self):
        for n in range(10):
            vec = rbe(n * 0.3, 0.3, 10)
            assert vec[n] == 1.0

    def test_length_and_domain(self):
        assert rbe(1.0, 0.3, 7).shape == (7,)
        with pytest.raises(DomainError):
            rbe(-0.5, 0.3, 10)
        with pytest.raises(DomainError):
            rbe(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            rbe(1.0, 0.3, 0)


class TestVertexFeatures:
    def test_team_onehot_plus_flattened_observation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = random_world(rng)
            ids, feats = all_vertex_features(w)
            assert feats.shape == (len(ids), VERTEX_DIM)
            for k, aid in enumerate(ids):
                a = w.agent(int(aid))
                single = vertex_features(w, int(aid))
                assert np.array_equal(single, feats[k])
                onehot = np.zeros(2)
                onehot[a.team] = 1.0
                assert np.array_equal(single[:2], onehot)
                assert np.array_equal(single[2:], w.observe(int(aid)).ravel())

    def test_empty_world_raises(self):
        w = random_world(np.random.default_rng(1))
        for a in w.agents:
            a.alive = False
        with pytest.raises(EmptyWorld):
            all_vertex_features(w)


class TestBuildGraph:
    def test_edges_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = random_world(rng)
            g = build_graph(w)
            got = sorted((int(u), int(v)) for u, v in g.edges)
            assert got == brute_force_edges(w)

    def test_distances_are_euclidean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = random_world(rng)
            g = build_graph(w)
            pos = {a.id: a.pos for a in w.alive_agents()}
            for (u, v), d in zip(g.edges, g.dists):
                pu, pv = pos[int(u)], pos[int(v)]
                assert d == pytest.approx(np.hypot(pu.x - pv.x, pu.y - pv.y))
                assert d in (0.0, 1.0, pytest.approx(np.sqrt(2)))

    def test_dead_agents_excluded(self):
        w = random_world(np.random.default_rng(2), max_agents=8)
        w.agents[0].alive = False
        g = build_graph(w)
        assert 0 not in g.ids.tolist()
        assert all(0 not in pair for pair in g.edges.tolist())

    def test_colocated_agents_distance_zero(self):
        cfg = ScenarioConfig(Scenario.JUNGLE, 5, 5, agents=2, episode_limit=9)
        w = new_scenario(cfg, 0)
        w.agents[0].pos = w.agents[1].pos = Position(2, 2)
        g = build_graph(w)
        assert g.edges.tolist() == [[0, 1]]
        assert g.dists.tolist() == [0.0]


class TestDecompose:
    def test_members_match_bfs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            w = random_world(rng)
            g = build_graph(w)
            edges = [(int(u), int(v)) for u, v in g.edges]
            for k in (1, 2, 3):
                sgs = decompose(g, k)
                assert [sg.centre for sg in sgs] == [int(i) for i in g.ids]
                for sg in sgs:
                    dist = hop_distances(len(w.agents), edges, sg.centre)
                    want = sorted(
                        i for i in g.ids.tolist() if dist.get(i, 99) <= k
                    )
                    assert sorted(sg.members.tolist()) == want

    def test_member_order_is_bfs_levels_with_ascending_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            w = random_world(rng)
            g = build_graph(w)
            edges = [(int(u), int(v)) for u, v in g.edges]
            for sg in decompose(g, 3):
                dist = hop_distances(len(w.agents), edges, sg.centre)
                levels = [dist[int(m)] for m in sg.members]
                assert levels == sorted(levels)
                for lv in set(levels):
                    ids = [int(m) for m, l in zip(sg.members, levels) if l == lv]
                    assert ids == sorted(ids)

    def test_induced_edges_both_directions(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            w = random_world(rng)
            g = build_graph(w)
            base = {tuple(sorted(map(int, e))) for e in g.edges}
            for sg in decompose(g, 2):
                members = sg.members.tolist()
                induced = {
                    (i, j)
                    for i, j in itertools.combinations(sorted(members), 2)
                    if (i, j) in base
                }
                got = set()
                for i, j in zip(sg.edge_src, sg.edge_dst):
                    a, b = int(sg.members[i]), int(sg.members[j])
                    got.add((min(a, b), max(a, b)))
                assert got == induced
                # every undirected pair appears exactly once per direction
                directed = list(zip(sg.edge_src.tolist(), sg.edge_dst.tolist()))
                assert len(directed) == len(set(directed)) == 2 * len(induced)

    def test_edge_features_are_rbe_of_distance(self):
        rng = np.random.default_rng(17)
        w = random_world(rng)
        g = build_graph(w)
        for sg in decompose(g, 3, 0.3, 10):
            for d, feat in zip(sg.edge_dist, sg.edge_feat):
                assert np.array_equal(feat, rbe(float(d), 0.3, 10))

    def test_depth_one_subset_of_depth_three(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            w = random_world(rng)
            g = build_graph(w)
            shallow = {sg.centre: set(sg.members.tolist()) for sg in decompose(g, 1)}
            deep = {sg.centre: set(sg.members.tolist()) for sg in decompose(g, 3)}
            for c in shallow:
                assert shallow[c] <= deep[c]

    def test_member_slot_and_errors(self):
        w = random_world(np.random.default_rng(23))
        g = build_graph(w)
        sgs = decompose(g, 2)
        sg = sgs[0]
        for k, m in enumerate(sg.members):
            assert sg.member_slot(int(m)) == k
        with pytest.raises(MemberNotFound):
            sg.member_slot(10_000)
        with pytest.raises(DomainError):
            decompose(g, 0)

    def test_matches_loop_reference_exactly(self):
        rng = np.random.default_rng(29)
        stacked = isolated = 0
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(40):
                g = build_graph(stacked_world(rng, scenario))
                for k in (1, 2, 3):
                    got, want = decompose(g, k), loop_decompose(g, k)
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert a.centre == b.centre and a.depth == b.depth
                        for name in ("members", "features", "edge_src", "edge_dst", "edge_dist", "edge_feat"):
                            x, y = getattr(a, name), getattr(b, name)
                            assert x.dtype == y.dtype and x.shape == y.shape, name
                            assert np.array_equal(x, y), name
                        stacked += int(np.any(b.edge_dist == 0.0))
                        isolated += int(b.n_members() == 1)
        assert stacked and isolated  # both corner cases were exercised

    def test_chosen_centres_equal_the_full_decomposition_restricted(self):
        # per field, bit for bit: the sub-graphs of the chosen centres, cut
        # out of the decomposition of every centre; features, lengths and
        # radial-basis rows as gathered from the tables
        def restricted(dec, index):
            rows = [np.arange(dec.offsets[i], dec.offsets[i + 1]) for i in index]
            edges = [np.arange(dec.edge_offsets[i], dec.edge_offsets[i + 1]) for i in index]
            rows = np.concatenate(rows + [np.empty(0, dtype=np.int64)])
            edges = np.concatenate(edges + [np.empty(0, dtype=np.int64)])
            return {
                "centres": dec.centres[index],
                "members": dec.members[rows],
                "rows": dec.rows[rows],
                "features": dec.table[dec.rows[rows]],
                "offsets": np.concatenate([[0], np.cumsum(dec.sizes()[index])]),
                "edge_src": dec.edge_src[edges],
                "edge_dst": dec.edge_dst[edges],
                "edge_dist": dec.lengths[dec.edge_code[edges]],
                "edge_feat": dec.rbf[dec.edge_code[edges]],
                "edge_offsets": np.concatenate([[0], np.cumsum(np.diff(dec.edge_offsets)[index])]),
            }

        rng = np.random.default_rng(31)
        tried = 0
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(25):
                w = stacked_world(rng, scenario)
                g = build_graph(w)
                n = g.n_vertices()
                teams = w.team[g.ids]
                choices = [np.empty(0, dtype=np.int64), np.array([int(rng.integers(n))])]
                choices += [np.flatnonzero(teams == t) for t in np.unique(teams).tolist()]
                choices.append(np.flatnonzero(rng.random(n) < 0.5))
                for k in (1, 2, 3):
                    full = decompose(g, k, 0.3, 10)
                    for centres in choices:
                        got = decompose(g, k, 0.3, 10, centres=centres)
                        assert got.depth == k and len(got) == len(centres)
                        gathered = {
                            "features": got.table[got.rows],
                            "edge_dist": got.lengths[got.edge_code],
                            "edge_feat": got.rbf[got.edge_code],
                        }
                        for name, want in restricted(full, centres).items():
                            have = gathered[name] if name in gathered else getattr(got, name)
                            assert have.dtype == want.dtype and have.shape == want.shape, name
                            assert np.array_equal(have, want), name
                        tried += 1
        assert tried >= 2 * 25 * 3 * 4

    def test_empty_graph_rejected(self):
        empty = EnvGraph(
            ids=np.empty(0, dtype=np.int64),
            features=np.empty((0, VERTEX_DIM)),
            edges=np.empty((0, 2), dtype=np.int64),
            dists=np.empty(0),
        )
        with pytest.raises(EmptyWorld):
            decompose(empty, 2)


class TestSharedTables:
    def test_decomposition_shares_the_graph_feature_table(self):
        rng = np.random.default_rng(37)
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(10):
                g = build_graph(stacked_world(rng, scenario))
                for k in (1, 2, 3):
                    dec = decompose(g, k)
                    assert dec.table is g.features
                    assert np.array_equal(dec.members, g.ids[dec.rows])
                    # one radial-basis row per distinct length
                    assert len(np.unique(dec.lengths)) == len(dec.lengths) == len(dec.rbf)

    def test_concat_maps_every_member_to_its_own_graphs_row(self):
        rng = np.random.default_rng(41)
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(10):
                graphs = [build_graph(stacked_world(rng, scenario)) for _ in range(3)]
                parts = []
                for g in graphs:
                    centres = np.flatnonzero(rng.random(g.n_vertices()) < 0.6)
                    parts.append(decompose(g, int(rng.integers(1, 4)), centres=centres))
                dec = Decomposition.concat(parts)
                assert len(dec.table) == sum(g.n_vertices() for g in graphs)
                graph_of = np.concatenate([np.full(p.offsets[-1], gi) for gi, p in enumerate(parts)])
                for k, (member, gi) in enumerate(zip(dec.members.tolist(), graph_of.tolist())):
                    g = graphs[gi]
                    own = int(np.searchsorted(g.ids, member))
                    assert np.array_equal(dec.table[dec.rows[k]], g.features[own])
                # hops, graph edges and their codes shift with the tables
                assert np.array_equal(dec.hop, np.concatenate([p.hop for p in parts]))
                first_row = np.cumsum([0] + [g.n_vertices() for g in graphs])
                first_adj = np.cumsum([0] + [len(g.nbrs) for g in graphs])
                for name, own in (("graph_src", "nbr_src"), ("graph_dst", "nbrs")):
                    want = [getattr(g, own) + f for g, f in zip(graphs, first_row)]
                    assert np.array_equal(getattr(dec, name), np.concatenate(want)), name
                want = [g.lengths[g.nbr_code] for g in graphs]
                assert np.array_equal(dec.lengths[dec.graph_code], np.concatenate(want))
                want = [p.edge_adj + f for p, f in zip(parts, first_adj)]
                assert np.array_equal(dec.edge_adj, np.concatenate(want))
                first = np.repeat(dec.offsets[:-1], np.diff(dec.edge_offsets))  # per edge
                assert np.array_equal(dec.graph_src[dec.edge_adj], dec.rows[first + dec.edge_src])
                assert np.array_equal(dec.graph_dst[dec.edge_adj], dec.rows[first + dec.edge_dst])
                # every sub-graph reads as it did in its own part
                views = [sg for p in parts for sg in p]
                assert len(dec) == len(views)
                for got, want in zip(dec, views):
                    for name in ("members", "features", "edge_src", "edge_dst", "edge_dist", "edge_feat"):
                        x, y = getattr(got, name), getattr(want, name)
                        assert x.dtype == y.dtype and x.shape == y.shape, name
                        assert np.array_equal(x, y), name

    def test_hops_and_graph_edges_match_a_bfs_and_the_graph(self):
        rng = np.random.default_rng(47)
        tried = 0
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(15):
                g = build_graph(stacked_world(rng, scenario))
                n = g.n_vertices()
                # each adjacency entry's reverse is the same pair the other way round
                assert np.array_equal(g.nbr_src, np.repeat(np.arange(n), np.diff(g.indptr)))
                assert np.array_equal(g.nbr_src[g.nbr_rev], g.nbrs)
                assert np.array_equal(g.nbrs[g.nbr_rev], g.nbr_src)
                assert np.array_equal(g.nbr_rev[g.nbr_rev], np.arange(len(g.nbrs)))
                # each entry's length is its pair's
                pair = np.minimum(g.nbr_src, g.nbrs) * n + np.maximum(g.nbr_src, g.nbrs)
                by_pair = dict(zip((g.edges[:, 0] * n + g.edges[:, 1]).tolist(), g.dists.tolist()))
                assert g.lengths[g.nbr_code].tolist() == [by_pair[p] for p in pair.tolist()]
                for k in (1, 2, 3):
                    centres = np.flatnonzero(rng.random(n) < 0.6)
                    dec = decompose(g, k, centres=centres)
                    # the graph's edges and lengths are shared, not copied
                    assert dec.graph_src is g.nbr_src and dec.graph_dst is g.nbrs
                    assert dec.graph_code is g.nbr_code and dec.lengths is g.lengths
                    for i, c in enumerate(centres.tolist()):
                        lo, hi = dec.offsets[i], dec.offsets[i + 1]
                        dist = hop_distances(n, g.edges.tolist(), c)
                        assert dec.hop.dtype == np.int64
                        rows = dec.rows[lo:hi]
                        assert dec.hop[lo:hi].tolist() == [dist[v] for v in rows.tolist()]
                        elo, ehi = dec.edge_offsets[i], dec.edge_offsets[i + 1]
                        adj = dec.edge_adj[elo:ehi]
                        assert np.array_equal(g.nbr_src[adj], rows[dec.edge_src[elo:ehi]])
                        assert np.array_equal(g.nbrs[adj], rows[dec.edge_dst[elo:ehi]])
                        assert np.array_equal(dec.edge_code[elo:ehi], dec.graph_code[adj])
                        tried += 1
        assert tried > 100

    def test_batch_gathers_as_the_views_do(self):
        # bit for bit, the batch of a decomposition and that of its views
        def gathered(batch, name):
            # z0: each edge's radial-basis row, which the batch holds as a code
            if name == "z0":
                return np.take(batch.rbf, batch.edge_code, axis=0)
            return getattr(batch, name)

        rng = np.random.default_rng(43)
        for scenario in (Scenario.JUNGLE, Scenario.BATTLE):
            for _ in range(15):
                g = build_graph(stacked_world(rng, scenario))
                for k in (1, 2, 3):
                    dec = decompose(g, k)
                    joint = rng.integers(5, size=int(dec.offsets[-1]))
                    views = list(dec)
                    pairs = [
                        (batch_subgraphs(dec), batch_subgraphs(views)),
                        (
                            batch_subgraphs(dec, joints=[joint]),
                            batch_subgraphs(views, joints=np.split(joint, dec.offsets[1:-1])),
                        ),
                    ]
                    for got, want in pairs:
                        assert got.n_graphs == want.n_graphs
                        for name in ("x", "z0", "edge_src", "edge_dst", "graph_of"):
                            x, y = gathered(got, name), gathered(want, name)
                            assert x.dtype == y.dtype and x.shape == y.shape, name
                            assert np.array_equal(x, y), name
