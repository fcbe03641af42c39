// Package inet implements the datagram network stack behind the kernel's
// sockets: a per-machine port space carried over the simulated Ethernet,
// plus the forwarding-address mechanism the socket-migration extension
// uses — when a process with a bound port migrates, the old machine keeps
// a forwarding entry and relays datagrams to the new one, the technique
// the paper credits to DEMOS/MP in its related-work survey.
package inet

import (
	"bytes"
	"encoding/gob"

	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// MuxPort is the netsim service port carrying all datagram traffic.
const MuxPort = 1700

type packet struct {
	Kind string // "data" or "forward"
	Port int
	Data []byte
	Dest string // forward requests: where to relay
}

type reply struct {
	Err errno.Errno
}

func encode(v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic("inet: encode: " + err.Error())
	}
	return b.Bytes()
}

// Fix the gob type ids of the datagram messages at init, so a message's
// size does not depend on what the process encoded before.
func init() {
	encode(&packet{})
	encode(&reply{})
}

// Stack is one machine's datagram port space.
type Stack struct {
	host  *netsim.Host
	bound map[int]*kernel.SocketObj
	// forwards maps ports of migrated-away sockets to their new host.
	forwards map[int]string
}

// New builds and registers the stack on host.
func New(host *netsim.Host) (*Stack, error) {
	s := &Stack{host: host, bound: map[int]*kernel.SocketObj{}, forwards: map[int]string{}}
	err := host.Listen(MuxPort, func(t *sim.Task, raw []byte) []byte {
		var pkt packet
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&pkt); err != nil {
			return encode(&reply{Err: errno.EINVAL})
		}
		return encode(&reply{Err: s.handle(t, &pkt)})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Stack) handle(t *sim.Task, pkt *packet) errno.Errno {
	switch pkt.Kind {
	case "data":
		if sock, ok := s.bound[pkt.Port]; ok {
			sock.Deliver(pkt.Data)
			return 0
		}
		if dest, ok := s.forwards[pkt.Port]; ok {
			// Relay to the migrated process's new home.
			return s.send(dest, &packet{Kind: "data", Port: pkt.Port, Data: pkt.Data})
		}
		return errno.ECONNREFUSED
	case "forward":
		// A restarted process claims this port on its new machine; any
		// local binding is gone (its holder was killed by SIGDUMP).
		s.forwards[pkt.Port] = pkt.Dest
		return 0
	default:
		return errno.EINVAL
	}
}

func (s *Stack) send(host string, pkt *packet) errno.Errno {
	raw, err := s.host.Call(nil, host, MuxPort, encode(pkt))
	if err != nil {
		return errno.Of(err)
	}
	var r reply
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&r); err != nil {
		return errno.EIO
	}
	return r.Err
}

// Bind implements kernel.NetStack.
func (s *Stack) Bind(sock *kernel.SocketObj, port int) errno.Errno {
	if port <= 0 || port > 65535 {
		return errno.EINVAL
	}
	if _, taken := s.bound[port]; taken {
		return errno.EEXIST
	}
	// Binding a port locally supersedes any stale forwarding entry.
	delete(s.forwards, port)
	s.bound[port] = sock
	sock.Port = port
	sock.Host = s.host.Name()
	return 0
}

// Unbind implements kernel.NetStack.
func (s *Stack) Unbind(sock *kernel.SocketObj) {
	if cur, ok := s.bound[sock.Port]; ok && cur == sock {
		delete(s.bound, sock.Port)
	}
	sock.Port = 0
}

// SendTo implements kernel.NetStack. Local delivery short-circuits the
// wire.
func (s *Stack) SendTo(host string, port int, data []byte) errno.Errno {
	if host == s.host.Name() {
		pkt := &packet{Kind: "data", Port: port, Data: data}
		return s.handle(nil, pkt)
	}
	return s.send(host, &packet{Kind: "data", Port: port, Data: data})
}

// RequestForward implements kernel.NetStack: ask oldHost to relay the
// port here.
func (s *Stack) RequestForward(oldHost string, port int) errno.Errno {
	if oldHost == s.host.Name() {
		return 0 // local restart: the binding moved with the process
	}
	return s.send(oldHost, &packet{Kind: "forward", Port: port, Dest: s.host.Name()})
}

// Forwards exposes the forwarding table (tests).
func (s *Stack) Forwards() map[int]string {
	out := map[int]string{}
	for k, v := range s.forwards {
		out[k] = v
	}
	return out
}

var _ kernel.NetStack = (*Stack)(nil)
