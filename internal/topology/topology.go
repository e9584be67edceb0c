// Package topology models the distributed service infrastructure of the
// paper: a single video warehouse (VW) archiving every title, a set of
// intermediate storages (IS) — one per neighborhood — and the undirected
// high-speed network connecting them. Users attach to exactly one local IS;
// the path between a user and its local IS is fixed and is not part of the
// scheduling problem (paper §2.1).
package topology

import (
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/units"
)

// NodeID identifies a storage node (warehouse or intermediate storage).
// IDs are dense indices assigned by the builder in insertion order.
type NodeID int

// UserID identifies a user. IDs are dense indices in attachment order.
type UserID int

// NodeKind distinguishes the archive from the caches.
type NodeKind int

const (
	// KindWarehouse is the permanent archive; it stores every video at
	// zero charging rate (paper: srate(VW) = 0) and has no capacity limit.
	KindWarehouse NodeKind = iota
	// KindStorage is an intermediate storage with finite capacity and a
	// per-byte-second charging rate.
	KindStorage
)

func (k NodeKind) String() string {
	switch k {
	case KindWarehouse:
		return "warehouse"
	case KindStorage:
		return "storage"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a storage node in the service network.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Name     string
	Capacity units.Bytes // disk capacity; ignored for the warehouse
}

// Edge is an undirected network link between two storage nodes.
// Edges are identified by their index in Topology.Edges().
type Edge struct {
	A, B NodeID
}

// Other returns the endpoint of e opposite to n.
func (e Edge) Other(n NodeID) NodeID {
	if e.A == n {
		return e.B
	}
	return e.A
}

// User is a service subscriber attached to its local intermediate storage.
type User struct {
	ID    UserID
	Local NodeID // the user's neighborhood IS
}

// Topology is an immutable service network. Construct one with a Builder or
// one of the generators in this package.
type Topology struct {
	nodes     []Node
	edges     []Edge
	users     []User
	adj       [][]adjEntry // node -> incident edges
	warehouse NodeID
	byName    map[string]NodeID
}

type adjEntry struct {
	edge int    // index into edges
	to   NodeID // the far endpoint
}

// NumNodes returns the number of storage nodes (warehouse included).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumStorages returns the number of intermediate storages.
func (t *Topology) NumStorages() int { return len(t.nodes) - 1 }

// NumEdges returns the number of network links.
func (t *Topology) NumEdges() int { return len(t.edges) }

// NumUsers returns the number of attached users.
func (t *Topology) NumUsers() int { return len(t.users) }

// Warehouse returns the ID of the video warehouse.
func (t *Topology) Warehouse() NodeID { return t.warehouse }

// Node returns the node with the given ID; it panics on an invalid ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Nodes returns all nodes in ID order. The slice is shared; do not modify.
func (t *Topology) Nodes() []Node { return t.nodes }

// Storages returns the IDs of all intermediate storages in ID order.
func (t *Topology) Storages() []NodeID {
	out := make([]NodeID, 0, t.NumStorages())
	for _, n := range t.nodes {
		if n.Kind == KindStorage {
			out = append(out, n.ID)
		}
	}
	return out
}

// Edges returns all links. The slice is shared; do not modify.
func (t *Topology) Edges() []Edge { return t.edges }

// Edge returns the edge with the given index; it panics on an invalid index.
func (t *Topology) Edge(i int) Edge { return t.edges[i] }

// Users returns all users in ID order. The slice is shared; do not modify.
func (t *Topology) Users() []User { return t.users }

// User returns the user with the given ID; it panics on an invalid ID.
func (t *Topology) User(id UserID) User { return t.users[id] }

// UsersAt returns the IDs of the users whose local storage is n.
func (t *Topology) UsersAt(n NodeID) []UserID {
	var out []UserID
	for _, u := range t.users {
		if u.Local == n {
			out = append(out, u.ID)
		}
	}
	return out
}

// UserRegions partitions the neighborhoods into n contiguous regions of
// near-equal size — storages ordered by node ID, so adjacent neighborhoods
// share a region — and returns each user's region index. It is the
// gateway's locality partition and the pattern generator's regional cohorts:
// one definition, so a cohort's traffic lands on one shard. Users homed off
// the storage set fall into region 0.
func UserRegions(t *Topology, n int) []int {
	storages := t.Storages()
	region := make(map[NodeID]int, len(storages))
	for i, s := range storages {
		region[s] = i * n / len(storages)
	}
	out := make([]int, t.NumUsers())
	for i := range out {
		out[i] = region[t.User(UserID(i)).Local]
	}
	return out
}

// Lookup returns the node with the given name.
func (t *Topology) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// Neighbors calls fn for every edge incident to n, passing the edge index
// and the far endpoint.
func (t *Topology) Neighbors(n NodeID, fn func(edgeIdx int, to NodeID)) {
	for _, a := range t.adj[n] {
		fn(a.edge, a.to)
	}
}

// Degree returns the number of links incident to n.
func (t *Topology) Degree(n NodeID) int { return len(t.adj[n]) }

// EdgeBetween returns the index of an edge connecting a and b, if any.
func (t *Topology) EdgeBetween(a, b NodeID) (int, bool) {
	for _, ae := range t.adj[a] {
		if ae.to == b {
			return ae.edge, true
		}
	}
	return 0, false
}

// Connected reports whether every node is reachable from the warehouse.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return false
	}
	seen := make([]bool, len(t.nodes))
	stack := []NodeID{t.warehouse}
	seen[t.warehouse] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range t.adj[n] {
			if !seen[a.to] {
				seen[a.to] = true
				count++
				stack = append(stack, a.to)
			}
		}
	}
	return count == len(t.nodes)
}

// Builder assembles a Topology. The zero value is ready to use.
type Builder struct {
	nodes []Node
	edges []Edge
	users []User
	errs  []error
	hasVW bool
	names map[string]NodeID
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{names: make(map[string]NodeID)}
}

func (b *Builder) addNode(kind NodeKind, name string, cap units.Bytes) NodeID {
	id := NodeID(len(b.nodes))
	if name == "" {
		switch kind {
		case KindWarehouse:
			name = "VW"
		default:
			name = fmt.Sprintf("IS%d", id)
		}
	}
	if _, dup := b.names[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate node name %q", name))
	}
	b.names[name] = id
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Name: name, Capacity: cap})
	return id
}

// Warehouse adds the video warehouse. Exactly one is required.
func (b *Builder) Warehouse(name string) NodeID {
	if b.hasVW {
		b.errs = append(b.errs, fmt.Errorf("second warehouse %q added", name))
	}
	b.hasVW = true
	return b.addNode(KindWarehouse, name, 0)
}

// Storage adds an intermediate storage with the given disk capacity.
func (b *Builder) Storage(name string, capacity units.Bytes) NodeID {
	if capacity < 0 {
		b.errs = append(b.errs, fmt.Errorf("storage %q has negative capacity %d", name, capacity))
	}
	return b.addNode(KindStorage, name, capacity)
}

// Connect adds an undirected link between two nodes.
func (b *Builder) Connect(a, c NodeID) {
	if !b.validID(a) || !b.validID(c) {
		b.errs = append(b.errs, fmt.Errorf("connect: invalid node id (%d, %d)", a, c))
		return
	}
	if a == c {
		b.errs = append(b.errs, fmt.Errorf("connect: self loop at node %d", a))
		return
	}
	for _, e := range b.edges {
		if (e.A == a && e.B == c) || (e.A == c && e.B == a) {
			b.errs = append(b.errs, fmt.Errorf("connect: duplicate edge (%d, %d)", a, c))
			return
		}
	}
	b.edges = append(b.edges, Edge{A: a, B: c})
}

// AttachUsers attaches n users to the given intermediate storage.
func (b *Builder) AttachUsers(local NodeID, n int) {
	if !b.validID(local) {
		b.errs = append(b.errs, fmt.Errorf("attach: invalid node id %d", local))
		return
	}
	if b.nodes[local].Kind != KindStorage {
		b.errs = append(b.errs, fmt.Errorf("attach: node %d is not an intermediate storage", local))
		return
	}
	for i := 0; i < n; i++ {
		b.users = append(b.users, User{ID: UserID(len(b.users)), Local: local})
	}
}

func (b *Builder) validID(id NodeID) bool {
	return id >= 0 && int(id) < len(b.nodes)
}

// Build validates and returns the topology. It fails if no warehouse was
// added, any earlier operation errored, or the graph is disconnected.
func (b *Builder) Build() (*Topology, error) {
	if !b.hasVW {
		b.errs = append(b.errs, fmt.Errorf("no warehouse"))
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("topology: %d error(s), first: %w", len(b.errs), b.errs[0])
	}
	t := &Topology{
		nodes:  append([]Node(nil), b.nodes...),
		edges:  append([]Edge(nil), b.edges...),
		users:  append([]User(nil), b.users...),
		byName: make(map[string]NodeID, len(b.nodes)),
	}
	for name, id := range b.names {
		t.byName[name] = id
	}
	for _, n := range t.nodes {
		if n.Kind == KindWarehouse {
			t.warehouse = n.ID
		}
	}
	t.adj = make([][]adjEntry, len(t.nodes))
	for i, e := range t.edges {
		t.adj[e.A] = append(t.adj[e.A], adjEntry{edge: i, to: e.B})
		t.adj[e.B] = append(t.adj[e.B], adjEntry{edge: i, to: e.A})
	}
	for n := range t.adj {
		a := t.adj[n]
		sort.Slice(a, func(i, j int) bool { return a[i].to < a[j].to })
	}
	if !t.Connected() {
		return nil, fmt.Errorf("topology: graph is not connected")
	}
	return t, nil
}
