package router

import "sync"

// MemoryIntegration buffers delivered messages in memory — the default
// application sink for simulations and tests.
type MemoryIntegration struct {
	mu   sync.Mutex
	msgs []AppMessage
}

// Deliver implements Integration.
func (m *MemoryIntegration) Deliver(msg AppMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.msgs = append(m.msgs, msg)
	return nil
}

// Messages returns a copy of everything delivered so far.
func (m *MemoryIntegration) Messages() []AppMessage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AppMessage(nil), m.msgs...)
}

// Count returns the number of delivered messages.
func (m *MemoryIntegration) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.msgs)
}
