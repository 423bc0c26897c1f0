package tcp

// DropConn force-closes the current connection to peer `to`, if any, to
// exercise the reconnect path; the supervisor redials and replays unacked
// messages, so no traffic is lost.
func (t *Transport) DropConn(to int) {
	if to < 0 || to >= t.n || to == t.id {
		return
	}
	p := t.peers[to]
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		// Not under p.mu: Close waits for the connection's ack reader to
		// leave its read, which may be waiting for p.mu to apply an ack.
		conn.Close()
	}
}
