package persist

import (
	"errors"
	"fmt"
)

// commitReq is one mutation on its way into a commit group. errc is
// buffered so whoever commits the group never blocks answering it.
type commitReq struct {
	op      byte
	rows    [][]uint8
	maxRows int
	errc    chan error
}

// errLead arrives on a queued request's errc ahead of its outcome: the
// group before it is durable, and the request now leads the next one.
var errLead = errors.New("persist: lead the next commit group")

// submit commits req by writer-led group commit and returns its
// outcome. A writer that finds no group in flight commits its own
// request on its own goroutine. Writers arriving while that group
// applies and syncs queue up; once it is durable, the leader wakes the
// first of them, which takes the whole queue — everyone who arrived
// until it ran — and commits it as the next group. Acknowledgement
// still means durable, N writers landing during one fsync share the
// next one, and no goroutine outlives the calls that need it.
func (s *Store) submit(req *commitReq) error {
	req.errc = make(chan error, 1)
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return fmt.Errorf("%w: store is closed", ErrUnavailable)
	}
	if s.leading {
		s.queue = append(s.queue, req)
		s.qmu.Unlock()
		if err := <-req.errc; err != errLead {
			return err
		}
		s.qmu.Lock()
	}
	s.leading = true
	group := s.queue
	s.queue = nil
	s.qmu.Unlock()
	if len(group) == 0 {
		group = []*commitReq{req}
	}
	s.commitGroup(group)

	s.qmu.Lock()
	if len(s.queue) > 0 {
		// Never blocks: the waiter has received nothing yet.
		s.queue[0].errc <- errLead
	} else {
		s.leading = false
		if s.drained != nil {
			close(s.drained)
			s.drained = nil
		}
	}
	s.qmu.Unlock()
	return <-req.errc
}
