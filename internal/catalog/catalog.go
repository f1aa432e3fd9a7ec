// Package catalog maintains the persistent system catalog of
// PREDATOR-Go: the set of tables (name, schema, heap-file root) and of
// registered user-defined functions. The catalog itself is stored in a
// heap file rooted at a fixed page so it can be recovered on reopen.
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"predator/internal/frame"
	"predator/internal/storage"
	"predator/internal/types"
)

// catalogRoot is the page that always holds the head of the catalog
// heap file. It is the first page allocated in a fresh database.
const catalogRoot storage.PageID = 1

// Entry kinds in catalog records.
const (
	entryTable    = 'T'
	entryFunction = 'F'
)

// Table describes a stored relation.
type Table struct {
	Name      string
	Schema    *types.Schema
	FirstPage storage.PageID

	rid  storage.RID
	heap *storage.HeapFile
}

// Heap returns the table's heap file.
func (t *Table) Heap() *storage.HeapFile { return t.heap }

// Function describes a registered UDF. For portable (Jaguar) UDFs the
// verified bytecode is stored in the catalog so the function survives
// server restarts; native UDFs are registered by the embedding program
// at startup and only their signatures are recorded here.
type Function struct {
	Name     string
	Language string // "native" or "jaguar"
	Isolated bool   // true = run out of process (Designs 2/4)
	ArgKinds []types.Kind
	Return   types.Kind
	Code     []byte // Jaguar class bytes; nil for native
	Owner    string // registering principal, for auditing

	rid storage.RID
}

// Catalog is the in-memory view of the persistent catalog.
type Catalog struct {
	mu     sync.RWMutex
	disk   *storage.DiskManager
	pool   *storage.BufferPool
	file   *storage.HeapFile
	tables map[string]*Table    // lower-case name -> table
	funcs  map[string]*Function // lower-case name -> function
}

// Open loads (or initializes) the catalog of the given database.
func Open(disk *storage.DiskManager, pool *storage.BufferPool) (*Catalog, error) {
	c := &Catalog{
		disk:   disk,
		pool:   pool,
		tables: make(map[string]*Table),
		funcs:  make(map[string]*Function),
	}
	if disk.NumPages() <= uint32(catalogRoot) {
		// Fresh database: the first allocation must yield catalogRoot.
		hf, err := storage.CreateHeapFile(disk, pool)
		if err != nil {
			return nil, err
		}
		if hf.FirstPage() != catalogRoot {
			return nil, fmt.Errorf("catalog: expected root page %d, got %d", catalogRoot, hf.FirstPage())
		}
		c.file = hf
		return c, nil
	}
	c.file = storage.OpenHeapFile(disk, pool, catalogRoot)
	sc := c.file.Scan()
	defer sc.Close()
	for sc.Next() {
		rec := sc.Record()
		if len(rec) == 0 {
			return nil, fmt.Errorf("catalog: empty catalog record at %s", sc.RID())
		}
		switch rec[0] {
		case entryTable:
			t, err := decodeTable(rec)
			if err != nil {
				return nil, err
			}
			t.rid = sc.RID()
			t.heap = storage.OpenHeapFile(disk, pool, t.FirstPage)
			c.tables[strings.ToLower(t.Name)] = t
		case entryFunction:
			f, err := decodeFunction(rec)
			if err != nil {
				return nil, err
			}
			f.rid = sc.RID()
			c.funcs[strings.ToLower(f.Name)] = f
		default:
			return nil, fmt.Errorf("catalog: unknown catalog entry kind %q", rec[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("catalog: scan: %w", err)
	}
	return c, nil
}

// CreateTable creates a new empty table with the given schema.
func (c *Catalog) CreateTable(name string, schema *types.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if schema.Arity() == 0 {
		return nil, fmt.Errorf("catalog: table %q must have at least one column", name)
	}
	seen := make(map[string]bool, schema.Arity())
	for _, col := range schema.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lc] = true
	}
	hf, err := storage.CreateHeapFile(c.disk, c.pool)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, FirstPage: hf.FirstPage(), heap: hf}
	rid, err := c.file.Insert(encodeTable(t))
	if err != nil {
		return nil, err
	}
	t.rid = rid
	c.tables[key] = t
	return t, nil
}

// DropTable removes the table and frees its storage.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	if _, err := c.file.Delete(t.rid); err != nil {
		return err
	}
	if err := t.heap.Destroy(); err != nil {
		return err
	}
	delete(c.tables, key)
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PutFunction registers (or replaces) a UDF. Functions with persist
// set are written to the catalog heap file and survive reopen.
func (c *Catalog) PutFunction(f *Function, persist bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(f.Name)
	if old, ok := c.funcs[key]; ok && old.rid != (storage.RID{}) {
		if _, err := c.file.Delete(old.rid); err != nil {
			return err
		}
	}
	if persist {
		rid, err := c.file.Insert(encodeFunction(f))
		if err != nil {
			return err
		}
		f.rid = rid
	}
	c.funcs[key] = f
	return nil
}

// DropFunction removes a UDF registration.
func (c *Catalog) DropFunction(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	f, ok := c.funcs[key]
	if !ok {
		return fmt.Errorf("catalog: function %q does not exist", name)
	}
	if f.rid != (storage.RID{}) {
		if _, err := c.file.Delete(f.rid); err != nil {
			return err
		}
	}
	delete(c.funcs, key)
	return nil
}

// Function looks up a UDF by name (case-insensitive).
func (c *Catalog) Function(name string) (*Function, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.funcs[strings.ToLower(name)]
	return f, ok
}

// Functions returns all registered UDFs sorted by name.
func (c *Catalog) Functions() []*Function {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Function, 0, len(c.funcs))
	for _, f := range c.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Flush persists all dirty pages (catalog and data) and forces them to
// stable storage.
func (c *Catalog) Flush() error {
	if err := c.pool.FlushAll(); err != nil {
		return err
	}
	return c.disk.Sync()
}

// Catalog record encoding

func encodeTable(t *Table) []byte {
	buf := frame.AppendString([]byte{entryTable}, t.Name)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.FirstPage))
	buf = binary.AppendUvarint(buf, uint64(t.Schema.Arity()))
	for _, col := range t.Schema.Columns {
		buf = append(frame.AppendString(buf, col.Name), byte(col.Kind))
	}
	return buf
}

// Records are read with the payload cursor the wire and the executor
// pipe use; a record is a page slice, so kept bytes are cloned.
func decodeTable(rec []byte) (*Table, error) {
	r := frame.Cursor{Buf: rec, Off: 1}
	t := &Table{}
	t.Name = r.Str()
	t.FirstPage = storage.PageID(binary.LittleEndian.Uint32([]byte{r.Byte(), r.Byte(), r.Byte(), r.Byte()}))
	schema := &types.Schema{Columns: make([]types.Column, r.Count(2))}
	for i := range schema.Columns {
		schema.Columns[i] = types.Column{Name: r.Str(), Kind: types.Kind(r.Byte())}
	}
	t.Schema = schema
	if r.Err != nil {
		return nil, fmt.Errorf("catalog: corrupt table record: %w", r.Err)
	}
	return t, nil
}

func encodeFunction(f *Function) []byte {
	buf := frame.AppendString(frame.AppendString([]byte{entryFunction}, f.Name), f.Language)
	if f.Isolated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.ArgKinds)))
	for _, k := range f.ArgKinds {
		buf = append(buf, byte(k))
	}
	buf = frame.AppendString(append(buf, byte(f.Return)), f.Owner)
	return frame.AppendBytes(buf, f.Code)
}

func decodeFunction(rec []byte) (*Function, error) {
	r := frame.Cursor{Buf: rec, Off: 1}
	f := &Function{}
	f.Name = r.Str()
	f.Language = r.Str()
	f.Isolated = r.Byte() != 0
	f.ArgKinds = make([]types.Kind, r.Count(1))
	for i := range f.ArgKinds {
		f.ArgKinds[i] = types.Kind(r.Byte())
	}
	f.Return = types.Kind(r.Byte())
	f.Owner = r.Str()
	f.Code = bytes.Clone(r.Bytes())
	if r.Err != nil {
		return nil, fmt.Errorf("catalog: corrupt function record: %w", r.Err)
	}
	return f, nil
}
