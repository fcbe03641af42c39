// Package netsim models the 10 Mbit Ethernet connecting the cluster's
// workstations: named hosts, numbered service ports, and request/response
// exchanges whose virtual-time cost is a per-message latency plus a
// per-byte transmission time. NFS and the rsh facility are built on it.
//
// A service handler runs in the calling task's context (the engine runs one
// task at a time, so this is equivalent to a server actor but cheaper and
// deterministic); the handler charges whatever server-side costs it incurs
// against the server machine's resources.
package netsim

import (
	"sync"

	"procmig/internal/errno"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Handler serves one request on a port. It runs in the caller's task.
type Handler func(t *sim.Task, req []byte) []byte

// Network is the shared medium.
type Network struct {
	eng      *sim.Engine
	hosts    map[string]*Host
	Latency  sim.Duration // per message
	ByteTime sim.Duration // per payload byte
	// Timeout is the sender-side deadline: how long a caller waits before
	// concluding a message (or its answer) is not coming. Every failed
	// Call/Send charges at least this much, so experiments cannot
	// under-report failure latency.
	Timeout sim.Duration

	// Fault injection (see fault.go). Nil maps mean a perfect network.
	linkFaults     map[linkKey]FaultSpec
	portFaults     map[int]FaultSpec
	linkPortFaults map[linkPortKey]FaultSpec
	// partition maps host -> group id while a Partition is in force (see
	// fault.go); messages between different groups are cut. Nil when whole.
	partition map[string]int

	// Stats
	Messages int64
	Bytes    int64
	// BytesElided counts payload bytes that never crossed the wire because
	// a sender's wire-efficiency layer shrank or suppressed them (zero-page,
	// page-ref and compressed records): the raw size minus what was actually
	// sent, reported by the sender through Stream.CountElided. Bytes above
	// counts what really moved; Bytes+BytesElided is what a naive encoding
	// would have moved.
	BytesElided int64

	// obs wiring (nil until SetObs): per-link drop and dup counters,
	// resolved into the sender's obsTo cache on each link's first fault
	// (see countLinkFault).
	obsReg *obs.Registry
}

// linkObs is one directed link's fault counters, registered under the
// sending host's scope as link.<to>.dropped and link.<to>.duplicated. Each
// is created on the link's first fault of its kind: a link that never
// drops or duplicates a message has no registry rows, and a cleanly
// delivered message looks nothing up.
type linkObs struct {
	dropped, duplicated *obs.Counter
}

// SetObs points the network at a metrics registry; dropped and duplicated
// messages are counted per directed link from then on. Switching
// registries invalidates every host's cached counters.
func (n *Network) SetObs(reg *obs.Registry) {
	n.obsReg = reg
	for _, h := range n.hosts {
		h.obsTo = nil
	}
}

// Obs returns the registry the network reports to (nil without SetObs) —
// the handle client-side code with only a *Host can reach metrics through.
func (n *Network) Obs() *obs.Registry { return n.obsReg }

// countLinkFault counts one message from -> to as dropped (or, with dup, as
// duplicated), creating the link's counter on its first use. A no-op when
// no registry is attached.
func (n *Network) countLinkFault(from, to *Host, dup bool) {
	if n.obsReg == nil {
		return
	}
	lo := from.obsTo[to]
	if lo == nil {
		lo = &linkObs{}
		if from.obsTo == nil {
			from.obsTo = map[*Host]*linkObs{}
		}
		from.obsTo[to] = lo
	}
	c, kind := &lo.dropped, ".dropped"
	if dup {
		c, kind = &lo.duplicated, ".duplicated"
	}
	if *c == nil {
		*c = n.obsReg.Scope(from.name).Counter("link." + to.name + kind)
	}
	(*c).Inc()
}

// HostStats counts one host's traffic (messages and payload bytes in each
// direction) since boot. BytesElided is the host's share, as a sender, of
// the network-wide Network.BytesElided counter.
type HostStats struct {
	MsgsOut, MsgsIn   int64
	BytesOut, BytesIn int64
	BytesElided       int64
}

// New creates a network. A 10 Mbit Ethernet moves ~1 byte/µs after
// protocol overhead; latency covers media access and protocol processing.
func New(eng *sim.Engine, latency, byteTime sim.Duration) *Network {
	return &Network{
		eng: eng, hosts: map[string]*Host{},
		Latency: latency, ByteTime: byteTime,
		Timeout: sim.Second,
	}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Host is one attached machine.
type Host struct {
	name     string
	net      *Network
	services map[int]Handler
	streams  map[int]StreamServer
	down     bool

	stats HostStats
	// clientBytes attributes payload bytes (both directions) to the
	// server port this host talked to as a client — e.g. "how much NFS
	// traffic did this host generate".
	clientBytes map[int]int64
	// portMsgsIn counts messages actually delivered to each local port
	// (lost ones excluded) — the clock scripted crashes run on.
	portMsgsIn map[int]int64

	// obsTo caches this host's outbound per-link fault counters by
	// destination; only links that have dropped or duplicated a message
	// have an entry.
	obsTo map[*Host]*linkObs

	crashAt      map[int]int // port -> messages until a scripted crash
	crashHook    func()
	reviveHook   func()
	restartAfter sim.Duration // auto-revival delay armed by RestartAfter
}

// AddHost attaches a new host.
func (n *Network) AddHost(name string) *Host {
	h := &Host{
		name: name, net: n,
		services:    map[int]Handler{},
		streams:     map[int]StreamServer{},
		clientBytes: map[int]int64{},
		portMsgsIn:  map[int]int64{},
	}
	n.hosts[name] = h
	return h
}

// Stats returns the host's traffic counters.
func (h *Host) Stats() HostStats { return h.stats }

// Network returns the network the host is attached to (for reading the
// global traffic counters).
func (h *Host) Network() *Network { return h.net }

// ClientBytes reports the payload bytes this host has exchanged as a
// client of the given server port (requests and responses, any server).
func (h *Host) ClientBytes(port int) int64 { return h.clientBytes[port] }

// PortMsgsIn reports how many messages have been delivered to one of this
// host's ports (lost messages excluded).
func (h *Host) PortMsgsIn(port int) int64 { return h.portMsgsIn[port] }

// Host finds an attached host by name.
func (n *Network) Host(name string) (*Host, bool) {
	h, ok := n.hosts[name]
	return h, ok
}

// Name reports the host's name.
func (h *Host) Name() string { return h.name }

// Listen registers a service handler on a port.
func (h *Host) Listen(port int, fn Handler) error {
	if _, busy := h.services[port]; busy {
		return errno.EEXIST
	}
	h.services[port] = fn
	return nil
}

// Unlisten removes the service handler on a port (a no-op when nothing
// listens), freeing it for a fresh daemon after a host revival.
func (h *Host) Unlisten(port int) { delete(h.services, port) }

// UnlistenStream removes the stream acceptor on a stream port.
func (h *Host) UnlistenStream(port int) { delete(h.streams, port) }

// SetDown marks the host as crashed (or repaired). Calls to a down host
// fail with EHOSTDOWN.
func (h *Host) SetDown(down bool) { h.down = down }

// Down reports whether the host is marked crashed.
func (h *Host) Down() bool { return h.down }

// Call sends req to the named host's port and waits for the response. The
// cost is one message each way; a call that fails (unreachable host, lost
// request or lost response) costs at least the network Timeout, the
// deadline the caller waited out. If t is nil the ambient engine task is
// used (nil outside actors: the exchange is then free, for setup code).
//
// Handlers run exactly once per delivered request: a lost request never
// runs the handler, a lost response means the handler ran but the caller
// cannot know — retrying callers must make their requests idempotent.
func (h *Host) Call(t *sim.Task, to string, port int, req []byte) ([]byte, error) {
	if t == nil {
		t = h.net.eng.Current()
	}
	if h.down {
		return nil, errno.EHOSTDOWN
	}
	dst, ok := h.net.hosts[to]
	if !ok {
		h.net.chargeTimeout(t)
		return nil, errno.EHOSTDOWN
	}
	fn, ok := dst.services[port]
	if !ok && !dst.down && !h.net.Partitioned(h.name, dst.name) {
		return nil, errno.ECONNREFUSED
	}
	if _, err := h.net.deliver(t, h, dst, h, port, len(req)); err != nil {
		return nil, err
	}
	resp := fn(t, req)
	if _, err := h.net.deliver(t, dst, h, h, port, len(resp)); err != nil {
		return nil, err
	}
	return resp, nil
}

// --- byte streams -----------------------------------------------------------

// StreamSink consumes one inbound stream on the server side. Both methods
// run in the sending task's context (like Handler); Done returns the
// final response shipped back on Close.
type StreamSink interface {
	Chunk(t *sim.Task, data []byte)
	Done(t *sim.Task) []byte
}

// StreamAborter is an optional StreamSink extension: Abort runs when the
// stream dies before a successful Close — the opener never saw the accept,
// the close went unanswered, or the sender gave up explicitly — so the
// sink can discard partial state instead of leaking it.
type StreamAborter interface {
	Abort(t *sim.Task)
}

// StreamSyncer is an optional StreamSink extension: Sync answers a small
// mid-stream query from the sender (Stream.Sync) — the back-channel
// chunks themselves lack. Queries must be idempotent: a reply lost to a
// drop fault means Sync ran and will run again on the retry.
type StreamSyncer interface {
	Sync(t *sim.Task, req []byte) []byte
}

// abortSink tears a sink down if it knows how.
func abortSink(t *sim.Task, sink StreamSink) {
	if a, ok := sink.(StreamAborter); ok {
		a.Abort(t)
	}
}

// StreamServer accepts a stream opened to a listening port, returning the
// sink that will consume it. A non-nil error refuses the stream.
type StreamServer func(t *sim.Task, from string, hello []byte) (StreamSink, error)

// ListenStream registers a stream acceptor on a port (stream ports are a
// separate namespace from Call ports).
func (h *Host) ListenStream(port int, fn StreamServer) error {
	if _, busy := h.streams[port]; busy {
		return errno.EEXIST
	}
	h.streams[port] = fn
	return nil
}

// Stream is an open byte stream from one host to another. Chunks pipeline:
// each Send charges one message (latency + bytes) and hands the chunk to
// the server's sink immediately, instead of one giant request at the end.
type Stream struct {
	net      *Network
	from, to *Host
	port     int
	sink     StreamSink
	closed   bool
}

// streamAckBytes models the handshake/close acknowledgement sizes.
const streamAckBytes = 8

// OpenStream opens a stream to the named host's stream port, performing a
// charged hello/accept handshake. If t is nil the ambient engine task is
// used (free outside actors, like Call).
func (h *Host) OpenStream(t *sim.Task, to string, port int, hello []byte) (*Stream, error) {
	if t == nil {
		t = h.net.eng.Current()
	}
	if h.down {
		return nil, errno.EHOSTDOWN
	}
	dst, ok := h.net.hosts[to]
	if !ok {
		h.net.chargeTimeout(t)
		return nil, errno.EHOSTDOWN
	}
	fn, ok := dst.streams[port]
	if !ok && !dst.down && !h.net.Partitioned(h.name, dst.name) {
		return nil, errno.ECONNREFUSED
	}
	if _, err := h.net.deliver(t, h, dst, h, port, len(hello)); err != nil {
		return nil, err
	}
	sink, err := fn(t, h.name, hello)
	if err != nil {
		h.net.deliver(t, dst, h, h, port, streamAckBytes) // the refusal
		return nil, err
	}
	if _, aerr := h.net.deliver(t, dst, h, h, port, streamAckBytes); aerr != nil {
		// The opener never learns the stream exists; the server side
		// times the half-open connection out and discards the sink.
		abortSink(t, sink)
		return nil, aerr
	}
	return &Stream{net: h.net, from: h, to: dst, port: port, sink: sink}, nil
}

// chunkPool recycles the per-Send delivery copies. Pointers to slices (not
// slices) so Put does not allocate a header; capacity fits a full page
// record with room to spare, and bigger chunks grow their pooled buffer
// once and keep it.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 0, 4608); return &b }}

// Send ships one chunk down the stream, charging its wire cost and
// delivering it to the server's sink in the calling task's context. A
// chunk lost to a drop fault returns ETIMEDOUT after the sender waited
// out the deadline; the stream stays open, so idempotent records can
// simply be resent. A duplicated chunk is handed to the sink twice.
//
// The sink receives a pooled copy of the chunk, valid only for the
// duration of the call: senders may reuse their buffer immediately, and
// sinks must copy whatever they keep (both the assembler and the spool
// sinks already do).
func (s *Stream) Send(t *sim.Task, chunk []byte) error {
	if t == nil {
		t = s.net.eng.Current()
	}
	if s.closed {
		return errno.EPIPE
	}
	if s.from.down {
		return errno.EHOSTDOWN
	}
	dup, err := s.net.deliver(t, s.from, s.to, s.from, s.port, len(chunk))
	if err != nil {
		return err
	}
	bp := chunkPool.Get().(*[]byte)
	buf := append((*bp)[:0], chunk...)
	s.sink.Chunk(t, buf)
	if dup {
		s.sink.Chunk(t, buf)
	}
	*bp = buf
	chunkPool.Put(bp)
	return nil
}

// Sync performs one charged query/reply round trip on the open stream,
// running the sink's Sync in the calling task's context (like Chunk). It
// fails with EINVAL when the sink does not implement StreamSyncer, and
// with the usual delivery errors (ETIMEDOUT on a lost query or reply)
// otherwise; callers retry idempotent queries exactly like lost chunks.
func (s *Stream) Sync(t *sim.Task, req []byte) ([]byte, error) {
	if t == nil {
		t = s.net.eng.Current()
	}
	if s.closed {
		return nil, errno.EPIPE
	}
	if s.from.down {
		return nil, errno.EHOSTDOWN
	}
	sy, ok := s.sink.(StreamSyncer)
	if !ok {
		return nil, errno.EINVAL
	}
	if _, err := s.net.deliver(t, s.from, s.to, s.from, s.port, len(req)); err != nil {
		return nil, err
	}
	resp := sy.Sync(t, req)
	if _, err := s.net.deliver(t, s.to, s.from, s.from, s.port, len(resp)); err != nil {
		return nil, err
	}
	return resp, nil
}

// CountElided records n payload bytes the sender elided from this stream
// (the gap between a naive raw encoding and what Send actually shipped),
// feeding the network's and the sending host's BytesElided counters.
func (s *Stream) CountElided(n int) {
	if n <= 0 {
		return
	}
	s.net.BytesElided += int64(n)
	s.from.stats.BytesElided += int64(n)
}

// Close ends the stream: the sink's Done runs (in the calling task's
// context) and its response is shipped back, charged like any message.
// If the close itself is lost the sink is aborted — the server times the
// connection out without ever running Done; if only the response is lost
// Done has run and the caller must resolve the outcome out of band.
func (s *Stream) Close(t *sim.Task) ([]byte, error) {
	if t == nil {
		t = s.net.eng.Current()
	}
	if s.closed {
		return nil, errno.EPIPE
	}
	s.closed = true
	if s.from.down {
		return nil, errno.EHOSTDOWN
	}
	if _, err := s.net.deliver(t, s.from, s.to, s.from, s.port, streamAckBytes); err != nil {
		if !s.to.down {
			abortSink(t, s.sink)
		}
		return nil, err
	}
	resp := s.sink.Done(t)
	if _, err := s.net.deliver(t, s.to, s.from, s.from, s.port, len(resp)); err != nil {
		return nil, err
	}
	return resp, nil
}

// Abort tears the stream down without running Done: the server side
// discards whatever arrived (partial spools included). The abort notice
// itself is best-effort; the sink is aborted regardless, modelling the
// server's own connection timeout.
func (s *Stream) Abort(t *sim.Task) {
	if s.closed {
		return
	}
	s.closed = true
	if s.to.down {
		return // the crash took the sink's state with it
	}
	if !s.from.down {
		s.net.deliver(t, s.from, s.to, s.from, s.port, streamAckBytes)
	}
	abortSink(t, s.sink)
}
