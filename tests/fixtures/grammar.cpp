// Every construct of the C++ subset that parses, once or a few times over:
// declarations, bodies, items up to a closing brace, argument lists,
// conditions and qualified names. tests/golden/grammar.ast pins its AST.
using namespace a::b;
namespace ns {
  class A {
  public:
    A(int x, int y) : first(x, y), second(x) {}
    A(char c);
    virtual ~A() = 0;
    int first, second;
  };
  typedef int Count;
}
namespace ns {
  Count reopened = 0;
}
class C;
class D {};
class B : public ns::A, private C, D {
public:
  B();
  ~B() {}
  enum Kind { ONE, TWO = 2 };
  typedef const int Value;
  static int count(void);
  int get() const;
  virtual void put(int value, char* text = 0, int = 1 + 2) = 0;
  Kind kind;
  Value values[4];
protected:
  class Inner { };
  Inner * inner;
private:
  int hidden;
};
enum { FIRST, SECOND, };
const int limit = 3;
int const other = 4;
ns::Count total;
int* make(int n, ns::A & ref) {
  int* p = new int(n);
  ns::A * a = new ns::A(1, 2);
  B::Kind kind = n;
  ++n;
  *p = 0;
  -n;
  !n;
  ~n;
  &n;
  (n);
  ;
  make(n, ref);
  a->first.go(1, 2, 3);
  n = n += n -= 1;
  n = n || n && n | n ^ n & n == n != n < n > n <= n >= n << n >> n + n - n * n / n % n;
  if (n > 0) n--; else if (n) { } else ;
  if (n) int x, y;
  switch (n) { case 1: case 2: n++; break; default: { break; } }
  while (n < limit) n = n + 1;
  do { n -= 1; continue; } while (n);
  for (int i = 0, j = 1; i < j; i++) { }
  for (n = 0; ; ) break;
  for (;;) { goto done; }
  done: ;
  "text"; 'c'; 1.5; true; false; this;
  { typedef int Local; Local l; }
  delete [] p;
  delete a;
  return (p);
}
void nothing() { return; }
