package main

// counters is a reading of the public counters the per-layer metrics and
// write_amp use; the metrics are deltas over a measured window.
type counters struct {
	opsSent                  uint64 // TCs
	lockAcquired, lockWaited uint64
	deadlocks                uint64
	tcForces, tcNoop, tcLogB uint64 // TC-log media
	dcForces, dcLogB         uint64 // DC-log media
	hits, misses             uint64 // buffer pool
	flushes, evictions       uint64
	pageWrites, pageBytes    uint64 // page store
	dupSkips, snapReads      uint64 // DC
	snapWaits                uint64
	resends, overloads       uint64 // dialed wire clients
}

func snapshot(d *deployment) counters {
	var c counters
	for _, t := range d.tcs {
		c.opsSent += t.Stats().OpsSent
		l := t.Locks().Stats()
		c.lockAcquired += l.Acquired
		c.lockWaited += l.Waited
		c.deadlocks += l.Deadlocks
		m := t.Log().Media()
		c.tcForces += m.Forces()
		c.tcNoop += m.NoopForces()
		c.tcLogB += m.AppendedBytes()
	}
	dm := d.dci.DCLog().Media()
	c.dcForces, c.dcLogB = dm.Forces(), dm.AppendedBytes()
	p := d.dci.Pool().Stats()
	c.hits, c.misses, c.flushes, c.evictions = p.Hits, p.Misses, p.Flushes, p.Evictions
	st := d.dci.Store().Stats()
	c.pageWrites, c.pageBytes = st.PageWrites, st.BytesWriten
	ds := d.dci.Stats()
	c.dupSkips, c.snapReads, c.snapWaits = ds.DupSkips, ds.SnapshotReads, ds.SnapshotWaits
	if d.dep != nil {
		ws := d.dep.RemoteWireStats()
		c.resends, c.overloads = ws.Resends, ws.Overloads
	}
	for _, cl := range d.wires {
		c.resends += cl.Resends()
		c.overloads += cl.Overloads()
	}
	return c
}

// sub returns c - o field by field.
func (c counters) sub(o counters) counters {
	return counters{
		opsSent: c.opsSent - o.opsSent, lockAcquired: c.lockAcquired - o.lockAcquired,
		lockWaited: c.lockWaited - o.lockWaited, deadlocks: c.deadlocks - o.deadlocks,
		tcForces: c.tcForces - o.tcForces, tcNoop: c.tcNoop - o.tcNoop, tcLogB: c.tcLogB - o.tcLogB,
		dcForces: c.dcForces - o.dcForces, dcLogB: c.dcLogB - o.dcLogB,
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		flushes: c.flushes - o.flushes, evictions: c.evictions - o.evictions,
		pageWrites: c.pageWrites - o.pageWrites, pageBytes: c.pageBytes - o.pageBytes,
		dupSkips: c.dupSkips - o.dupSkips, snapReads: c.snapReads - o.snapReads,
		snapWaits: c.snapWaits - o.snapWaits,
		resends:   c.resends - o.resends, overloads: c.overloads - o.overloads,
	}
}

// writeAmp is bytes written to the TC-logs, the DC-log and the page store
// per byte of user value committed by txns read/write transactions.
func (c counters) writeAmp(w *workload, txns int) float64 {
	writes := 4
	if w.transfer {
		writes = 2
	}
	user := float64(txns * writes * w.value)
	if user == 0 {
		return 0
	}
	return float64(c.tcLogB+c.dcLogB+c.pageBytes) / user
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
